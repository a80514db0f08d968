"""Forward kinematics over the parametric skeleton and shape fitting.

Transform convention: the root frame is Translate(root_pos) * Rotate(root_rot);
each non-root joint i chains parent_transform * Rotate(expmap_i) *
Translate(bone_scale_i * rest_offset_i). A joint's world position therefore
responds to its own rotation whenever its offset is non-zero, and the world
rotations are independent of the bone scales (which makes positions affine in
the scales for a fixed pose, and shape fitting a box-bounded linear
least-squares problem that fit_shape solves exactly).

Two parameter layouts. The stored layout of poses, motion files and the
*_vector entry points (which skip unit-quaternion validation) is [root_pos
(3), root_rot (4, wxyz), joint 1..J-1 expmaps (3 each)], length 3+4+3(J-1).
Jacobians and the retargeting solver use the tangent layout at a pose,
[root_pos (3), delta (3), joint expmaps], length 3J+3, with root rotation
root_rot * exp(delta): the root is a joint like the others, with parent
rotation R(root_rot) and pivot root_pos.

Each evaluation is one batched pass over the tree's depth levels (and over
frames, in fk_sequence); one Rodrigues call gives every local rotation and
its SO(3) left Jacobian J_l. Parameter (k, m) turns the joints d below joint
k about k's pivot with world angular velocity w = R_parent(k) J_l(theta_k)
e_m, so its Jacobian column is w x (p_d - pivot_k): the product-of-
exponentials Jacobian (Murray, Li & Sastry, "A Mathematical Introduction to
Robotic Manipulation", 1994, ch. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .motionio import MotionSequence, ShapeParams, Skeleton
from .rotations import quat_from_expmap, quat_mul, quat_to_mat, rodrigues, skew

# JointPositions: a (J, 3) float array of world-frame joint positions in meters.
JointPositions = np.ndarray


@dataclass(frozen=True)
class Pose:
    """Root pose plus per-non-root-joint exponential-map rotations."""

    root_pos: np.ndarray  # (3,)
    root_rot: np.ndarray  # (4,) wxyz, unit within 1e-6
    joint_rots: np.ndarray  # (J-1, 3)

    def __post_init__(self):
        if self.root_pos.shape != (3,) or self.root_rot.shape != (4,):
            raise DataError("root_pos must be (3,) and root_rot (4,)")
        if abs(np.linalg.norm(self.root_rot) - 1.0) > 1e-6:
            raise DataError("root_rot must be unit-norm within 1e-6")


def tpose(skeleton: Skeleton, root_pos: np.ndarray | None = None) -> Pose:
    """All-identity pose (the T-pose reference)."""
    return Pose(
        root_pos=np.zeros(3) if root_pos is None else np.asarray(root_pos, dtype=float),
        root_rot=np.array([1.0, 0.0, 0.0, 0.0]),
        joint_rots=np.zeros((skeleton.joint_count - 1, 3)),
    )


def pose_param_count(joint_count: int) -> int:
    return 3 + 4 + 3 * (joint_count - 1)


def pose_to_vector(pose: Pose) -> np.ndarray:
    return np.concatenate([pose.root_pos, pose.root_rot, pose.joint_rots.ravel()])


def _check_binding(skeleton: Skeleton, scales: np.ndarray, joint_rots: np.ndarray):
    j = skeleton.joint_count
    if scales.shape[-1:] != (j,):
        raise DataError(f"shape has {scales.shape[-1]} scales for {j} joints")
    if joint_rots.shape[-2:] != (j - 1, 3):
        raise DataError(f"pose has {joint_rots.shape[-2]} joint rotations, expected {j - 1}")


class _Tree(NamedTuple):
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]  # (joints, their parents) per depth
    pivot: np.ndarray  # (J,) joint each rotation parameter turns about
    below: np.ndarray  # (J, J) below[k, d] = 1.0 when d is k or one of its descendants


@lru_cache(maxsize=64)
def _tree(parents: tuple[int, ...]) -> _Tree:
    parent, j = np.array(parents), len(parents)
    depth, below = np.zeros(j, dtype=int), np.eye(j)
    for d in range(1, j):  # parents come before their children
        depth[d] = depth[parent[d]] + 1
        below[:, d] += below[:, parent[d]]
    levels = tuple((np.flatnonzero(depth == n), parent[depth == n]) for n in range(1, depth.max() + 1))
    tree = _Tree(levels, np.maximum(parent, 0), below)
    for array in (tree.pivot, tree.below, *(a for level in levels for a in level)):
        array.flags.writeable = False  # shared by every caller through the cache
    return tree


def _kinematics(skeleton, scales, root_pos, root_rot, joint_rots):
    """One batched pass over T frames or vectors (stored-layout parts with a
    leading axis) under (J,) bone scales, or (T, J) scales, one row per
    frame: the tree, world rotations (T, J, 3, 3), world positions (T, J, 3)
    and the joints' left Jacobians (T, J-1, 3, 3)."""
    _check_binding(skeleton, scales, joint_rots)
    tree = _tree(tuple(skeleton.parents.tolist()))
    local, left_jac = rodrigues(joint_rots)
    world = np.empty((len(root_pos), skeleton.joint_count, 3, 3))
    world[:, 0] = quat_to_mat(root_rot)
    for joints, parents in tree.levels:
        world[:, joints] = world[:, parents] @ local[:, joints - 1]
    # each position is the root plus the world bone vectors on its chain
    bones = world @ (scales[..., None] * skeleton.rest_offsets)[..., None]
    bones[:, 0, :, 0] = root_pos
    return tree, world, tree.below.T @ bones[..., 0], left_jac


def fk(skeleton: Skeleton, shape: ShapeParams, pose: Pose) -> JointPositions:
    """World joint positions for a pose under the given bone scales."""
    return _kinematics(skeleton, shape.bone_scales, pose.root_pos[None], pose.root_rot[None],
                       pose.joint_rots[None])[2][0]


def vector_kinematics(skeleton: Skeleton, shape: ShapeParams, x: np.ndarray):
    """The kinematics pass of one raw stored-layout parameter vector, as
    _kinematics returns it with a frame axis of length 1."""
    return stacked_kinematics(skeleton, shape.bone_scales, np.asarray(x, dtype=float)[None])


def stacked_kinematics(skeleton: Skeleton, scales: np.ndarray, x: np.ndarray):
    """The kinematics pass of (m, 3+4+3(J-1)) raw stored-layout vectors under
    (m, J) bone scales, or (J,) scales for all, one row per vector, as
    _kinematics returns it. Each row's arrays equal the row's own pass."""
    m = len(x)
    return _kinematics(skeleton, scales, x[:, 0:3], x[:, 3:7], x[:, 7:].reshape(m, skeleton.joint_count - 1, 3))


def fk_vector(skeleton: Skeleton, shape: ShapeParams, x: np.ndarray) -> JointPositions:
    """fk on a raw stored-layout parameter vector."""
    return vector_kinematics(skeleton, shape, x)[2][0]


def fk_jacobian_vector(
    skeleton: Skeleton, shape: ShapeParams, x: np.ndarray, kinematics=None
) -> tuple[JointPositions, np.ndarray]:
    """World joint positions (J, 3) and their Jacobian (3*J, 3*J + 3) over
    the tangent layout at the stored-layout vector x, from one pass: the
    given kinematics, vector_kinematics(skeleton, shape, x) made earlier,
    or a new one. Given (m, n) stacked vectors and their stacked_kinematics
    pass, it returns (m, J, 3) positions and (m, 3*J, 3*J + 3) Jacobians,
    each row equal to its own vector's."""
    if kinematics is None:
        kinematics = vector_kinematics(skeleton, shape, x)
    tree, world, positions, left_jac = kinematics
    m, j = positions.shape[:2]
    # column c of axes[:, k] is the world axis omega of rotation parameter
    # (k, c); J_l(0) = I at the root
    axes = world[:, tree.pivot]
    axes[:, 1:] = axes[:, 1:] @ left_jac
    # omega x (p_d - pivot_k) = [pivot_k - p_d]x omega on the joints d below k
    lever = (positions[:, tree.pivot][:, :, None, :] - positions[:, None, :, :]) * tree.below[:, :, None]
    columns = skew(lever) @ axes[:, :, None]  # (vector, k, d, xyz, c)
    translation = np.broadcast_to(np.tile(np.eye(3), (j, 1)), (m, 3 * j, 3))
    jacobians = np.concatenate([translation, columns.transpose(0, 2, 3, 1, 4).reshape(m, 3 * j, 3 * j)], axis=2)
    return (positions[0], jacobians[0]) if np.ndim(x) == 1 else (positions, jacobians)


def fk_jacobian(skeleton: Skeleton, shape: ShapeParams, pose: Pose) -> np.ndarray:
    """d(world positions)/d(tangent layout at pose), shape (3*J, 3*J + 3):
    root_pos, the right-perturbation delta of root_rot * exp(delta), then
    each joint's exponential map."""
    return fk_jacobian_vector(skeleton, shape, pose_to_vector(pose))[1]


def tangent_vector(x: np.ndarray) -> np.ndarray:
    """Tangent-layout vector of the stored-layout x at its own root rotation,
    over the last axis of (..., 3+4+3(J-1)) vectors."""
    return np.concatenate([x[..., 0:3], np.zeros(x.shape[:-1] + (3,)), x[..., 7:]], axis=-1)


def stored_vector(xi: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Stored-layout vector of the tangent-layout xi in the chart at the
    anchor quaternion: root rotation anchor * exp(delta), not renormalized.
    Given (m, 3J+3) vectors and (m, 4) anchors, the (m, 3+4+3(J-1)) stored
    vectors, row by row."""
    if np.ndim(xi) == 2:
        return np.array([stored_vector(v, a) for v, a in zip(xi, anchor)])
    return np.concatenate([xi[0:3], quat_mul(anchor, quat_from_expmap(xi[3:6])), xi[6:]])


def scale_jacobian(skeleton: Skeleton, shape: ShapeParams, pose: Pose) -> np.ndarray:
    """d(world positions)/d(bone scales), shape (3*J, J).

    World rotations do not depend on the scales, so positions are affine in
    them: d p_i / d s_k = world_rot[k] @ rest_offset_k for k on the root->i
    chain (k != root), else zero.
    """
    tree, world, _, _ = _kinematics(skeleton, shape.bone_scales, pose.root_pos[None], pose.root_rot[None],
                                    pose.joint_rots[None])
    bone_dirs = np.einsum("jab,jb->ja", world[0], skeleton.rest_offsets)  # (J, 3)
    bone_dirs[0] = 0.0  # the root's scale moves nothing
    return (tree.below.T[:, None, :] * bone_dirs.T[None]).reshape(3 * skeleton.joint_count, -1)


SCALE_BOUNDS = (0.1, 10.0)


def fit_shape(skeleton: Skeleton, source_tpose_joints: JointPositions) -> tuple[ShapeParams, float]:
    """Fit bone scales so the skeleton's T-pose joints match the source's.

    Minimizes the squared joint-position error over scales in [0.1, 10], with
    the T-pose root pinned to the source root position (scales cannot move
    the root). Positions are affine in the scales, so this is a box-bounded
    linear least-squares problem, solved exactly by the bounded-variable
    active-set method (Stark & Parker, "Bounded-Variable Least-Squares",
    Comp. Stat. 1995) for the step away from all-ones scales: a target equal
    to the skeleton's own T-pose returns scales of exactly 1 and a residual of
    exactly 0. Zero columns (the root, zero-length bones) keep scale 1. The
    other columns have full rank (block-triangular along each chain with the
    bone directions on the diagonal), so the optimum is unique. Returns the
    fitted scales and the RMS joint error at the optimum in meters.
    Unreachable targets get the best bounded fit with a positive residual; no
    error is raised.
    """
    source = np.asarray(source_tpose_joints, dtype=float)
    j = skeleton.joint_count
    if source.shape != (j, 3):
        raise DataError(f"source T-pose joints have shape {source.shape}, expected ({j}, 3)")
    pose = tpose(skeleton, root_pos=source[0])
    jac = scale_jacobian(skeleton, ShapeParams.ones(j), pose)  # constant: FK affine in scales
    b = (fk(skeleton, ShapeParams.ones(j), pose) - source).ravel()  # residual at all-ones
    lo, hi = SCALE_BOUNDS[0] - 1.0, SCALE_BOUNDS[1] - 1.0
    d = np.zeros(j)
    movable = np.any(jac != 0.0, axis=0)
    free = movable.copy()  # the others sit at lo or hi, or stay at 0 when not movable
    while True:
        # minimize over the free set with the bounded variables held
        z = d.copy()
        z[free] = np.linalg.lstsq(jac[:, free], -(b + jac[:, ~free] @ d[~free]), rcond=None)[0]
        outside = free & ((z < lo) | (z > hi))
        if outside.any():
            # walk from d toward z until the first free variable meets its bound
            step = z[outside] - d[outside]
            alpha = np.min((np.where(step < 0.0, lo, hi) - d[outside]) / step)
            if alpha <= 0.0:
                break  # the variable just released cannot move: its multiplier was round-off
            z = np.clip(d + alpha * (z - d), lo, hi)
        d = z
        free &= (d > lo) & (d < hi)
        if outside.any():
            continue
        # release the bounded variable whose KKT multiplier has the wrong sign
        grad = jac.T @ (jac @ d + b)
        wrong = np.where(d <= lo, -grad, grad) * (movable & ~free)
        if wrong.max() <= 0.0:
            break
        free[np.argmax(wrong)] = True
    scales = np.clip(1.0 + d, *SCALE_BOUNDS)  # 1 + (0.1 - 1) rounds below 0.1
    r = jac @ (scales - 1.0) + b
    return ShapeParams(bone_scales=scales), float(np.sqrt(r @ r / j))


def fk_sequence(skeleton: Skeleton, shape: ShapeParams, seq: MotionSequence) -> np.ndarray:
    """(T, J, 3) world joint positions over a whole sequence, in one pass."""
    return _kinematics(skeleton, shape.bone_scales, seq.root_pos, seq.root_rot, seq.joint_rots)[2]
