"""Forward kinematics over the parametric skeleton and shape fitting.

Transform convention: the root frame is Translate(root_pos) * Rotate(root_rot);
each non-root joint i chains parent_transform * Rotate(expmap_i) *
Translate(bone_scale_i * rest_offset_i). A joint's world position therefore
responds to its own rotation whenever its offset is non-zero, and the world
rotations are independent of the bone scales (which makes positions affine in
the scales for a fixed pose, and shape fitting a box-bounded linear
least-squares problem that fit_shape solves exactly).

Pose parameter vector layout, used by fk_jacobian and the retargeting
optimizer: [root_pos (3), root_rot (4, wxyz), joint 1 expmap (3), ...,
joint J-1 expmap (3)] -> length 3 + 4 + 3*(J-1). The *_vector entry points
evaluate raw parameter vectors without unit-quaternion validation, which is
what both the Gauss-Newton loop and finite-difference probes need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .motionio import MotionSequence, ShapeParams, Skeleton
from .rotations import expmap_to_mat, expmap_to_mat_jac, quat_to_mat, quat_to_mat_jac

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


def motion_frame_pose(seq: MotionSequence, t: int) -> Pose:
    return Pose(
        root_pos=seq.root_pos[t].copy(),
        root_rot=seq.root_rot[t].copy(),
        joint_rots=seq.joint_rots[t].copy(),
    )


def pose_param_count(joint_count: int) -> int:
    return 3 + 4 + 3 * (joint_count - 1)


def pose_to_vector(pose: Pose) -> np.ndarray:
    return np.concatenate([pose.root_pos, pose.root_rot, pose.joint_rots.ravel()])


def vector_to_pose(x: np.ndarray, joint_count: int) -> Pose:
    if x.shape != (pose_param_count(joint_count),):
        raise DataError(
            f"parameter vector has shape {x.shape}, expected ({pose_param_count(joint_count)},)"
        )
    return Pose(
        root_pos=x[0:3].copy(),
        root_rot=x[3:7].copy(),
        joint_rots=x[7:].reshape(joint_count - 1, 3).copy(),
    )


def _check_binding(skeleton: Skeleton, shape: ShapeParams, joint_rots: np.ndarray):
    j = skeleton.joint_count
    if shape.bone_scales.shape != (j,):
        raise DataError(f"shape has {shape.bone_scales.shape[0]} scales for {j} joints")
    if joint_rots.shape != (j - 1, 3):
        raise DataError(f"pose has {joint_rots.shape[0]} joint rotations, expected {j - 1}")


def _split_vector(x: np.ndarray, joint_count: int):
    return x[0:3], x[3:7], x[7:].reshape(joint_count - 1, 3)


def _fk_core(skeleton, shape, root_pos, root_rot, joint_rots) -> JointPositions:
    _check_binding(skeleton, shape, joint_rots)
    j = skeleton.joint_count
    world_rot = np.empty((j, 3, 3))
    positions = np.empty((j, 3))
    world_rot[0] = quat_to_mat(root_rot)
    positions[0] = root_pos
    scaled = shape.bone_scales[:, None] * skeleton.rest_offsets
    for i in range(1, j):
        p = skeleton.parents[i]
        world_rot[i] = world_rot[p] @ expmap_to_mat(joint_rots[i - 1])
        positions[i] = positions[p] + world_rot[i] @ scaled[i]
    return positions


def fk(skeleton: Skeleton, shape: ShapeParams, pose: Pose) -> JointPositions:
    """World joint positions for a pose under the given bone scales."""
    return _fk_core(skeleton, shape, pose.root_pos, pose.root_rot, pose.joint_rots)


def fk_vector(skeleton: Skeleton, shape: ShapeParams, x: np.ndarray) -> JointPositions:
    """fk on a raw parameter vector; skips unit-quaternion validation."""
    root_pos, root_rot, joint_rots = _split_vector(np.asarray(x, dtype=float), skeleton.joint_count)
    return _fk_core(skeleton, shape, root_pos, root_rot, joint_rots)


def _fk_jacobian_core(skeleton, shape, root_pos, root_rot, joint_rots) -> np.ndarray:
    _check_binding(skeleton, shape, joint_rots)
    j = skeleton.joint_count
    n_params = pose_param_count(j)
    scaled = shape.bone_scales[:, None] * skeleton.rest_offsets

    world_rot = np.empty((j, 3, 3))
    # d_rot[i]: (P, 3, 3) derivative of world_rot[i]; d_pos[i]: (P, 3).
    # Only the root block and the joint's ancestor chain ever hold non-zero
    # derivative columns, so propagation is restricted to those.
    d_rot = np.zeros((j, n_params, 3, 3))
    d_pos = np.zeros((j, n_params, 3))
    active: list[np.ndarray] = [np.arange(3, 7)]

    world_rot[0] = quat_to_mat(root_rot)
    d_pos[0, 0:3] = np.eye(3)
    d_rot[0, 3:7] = quat_to_mat_jac(root_rot)

    for i in range(1, j):
        p = skeleton.parents[i]
        local = expmap_to_mat(joint_rots[i - 1])
        world_rot[i] = world_rot[p] @ local
        offset_local = local @ scaled[i]

        cols = active[p]
        d_rot[i, cols] = d_rot[p, cols] @ local
        d_pos[i, cols] = d_pos[p, cols] + np.einsum("pab,b->pa", d_rot[p, cols], offset_local)
        d_pos[i, 0:3] = np.eye(3)
        # own exponential-map parameters enter through the local rotation only
        own = np.arange(7 + 3 * (i - 1), 7 + 3 * i)
        d_local = expmap_to_mat_jac(joint_rots[i - 1])  # (3, 3, 3)
        d_rot[i, own] += np.einsum("ab,pbc->pac", world_rot[p], d_local)
        d_pos[i, own] += np.einsum("ab,pbc,c->pa", world_rot[p], d_local, scaled[i])
        active.append(np.concatenate([cols, own]))

    return d_pos.transpose(0, 2, 1).reshape(3 * j, n_params)


def fk_jacobian(skeleton: Skeleton, shape: ShapeParams, pose: Pose) -> np.ndarray:
    """d(world positions)/d(pose parameters), shape (3*J, 3 + 4 + 3*(J-1)).

    Forward-mode accumulation of the exact derivatives of the polynomial
    quaternion formula and the Rodrigues map; agrees with central finite
    differences on the raw parameter vector.
    """
    return _fk_jacobian_core(skeleton, shape, pose.root_pos, pose.root_rot, pose.joint_rots)


def fk_jacobian_vector(skeleton: Skeleton, shape: ShapeParams, x: np.ndarray) -> np.ndarray:
    root_pos, root_rot, joint_rots = _split_vector(np.asarray(x, dtype=float), skeleton.joint_count)
    return _fk_jacobian_core(skeleton, shape, root_pos, root_rot, joint_rots)


def scale_jacobian(skeleton: Skeleton, shape: ShapeParams, pose: Pose) -> np.ndarray:
    """d(world positions)/d(bone scales), shape (3*J, J).

    World rotations do not depend on the scales, so positions are affine in
    them: d p_i / d s_k = world_rot[k] @ rest_offset_k for k on the root->i
    chain (k != root), else zero.
    """
    _check_binding(skeleton, shape, pose.joint_rots)
    j = skeleton.joint_count
    world_rot = np.empty((j, 3, 3))
    world_rot[0] = quat_to_mat(pose.root_rot)
    for i in range(1, j):
        world_rot[i] = world_rot[skeleton.parents[i]] @ expmap_to_mat(pose.joint_rots[i - 1])
    bone_dirs = np.einsum("jab,jb->ja", world_rot, skeleton.rest_offsets)  # (J, 3)

    jac = np.zeros((j, 3, j))
    for i in range(1, j):
        p = skeleton.parents[i]
        jac[i] = jac[p]
        jac[i, :, i] += bone_dirs[i]
    return jac.reshape(3 * j, j)


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
    """(T, J, 3) world joint positions over a whole sequence."""
    out = np.empty((seq.frame_count, skeleton.joint_count, 3))
    for t in range(seq.frame_count):
        out[t] = fk(skeleton, shape, motion_frame_pose(seq, t))
    return out
