"""Shared synthetic fixtures: skeletons, motions, meshes, and oracle helpers."""

from __future__ import annotations

import numpy as np
import pytest

from retargetkit import interactmesh
from retargetkit.kinematics import Pose, fk, stored_vector, tangent_vector, tpose
from retargetkit.motionio import MotionSequence, ObjectMesh, ShapeParams, Skeleton
from retargetkit.rotations import quat_from_expmap, rodrigues


def make_chain(n: int, offset=(0.0, 1.0, 0.0), q_limit=2.5, v_limit=10.0,
               foot_joints=()) -> Skeleton:
    """Straight chain of n joints; root offset zero, generous limits."""
    offsets = np.tile(np.asarray(offset, dtype=float), (n, 1))
    offsets[0] = 0.0
    return Skeleton(
        names=tuple(f"j{i}" for i in range(n)),
        parents=np.arange(-1, n - 1),
        rest_offsets=offsets,
        q_min=np.full((n, 3), -q_limit),
        q_max=np.full((n, 3), q_limit),
        v_min=np.full(n, -v_limit),
        v_max=np.full(n, v_limit),
        foot_joints=frozenset(foot_joints),
    )


# 20-joint humanoid-ish tree: pelvis/spine/neck/head, two arms, two legs.
_HUMANOID = [
    # name, parent, offset
    ("pelvis", -1, (0.0, 0.0, 0.0)),
    ("spine1", 0, (0.0, 0.0, 0.15)),
    ("spine2", 1, (0.0, 0.0, 0.15)),
    ("chest", 2, (0.0, 0.0, 0.15)),
    ("neck", 3, (0.0, 0.0, 0.10)),
    ("head", 4, (0.0, 0.0, 0.12)),
    ("l_clavicle", 3, (0.08, 0.05, 0.05)),
    ("l_shoulder", 6, (0.12, 0.0, 0.0)),
    ("l_elbow", 7, (0.26, 0.0, 0.0)),
    ("l_wrist", 8, (0.25, 0.0, 0.0)),
    ("r_clavicle", 3, (-0.08, 0.05, 0.05)),
    ("r_shoulder", 10, (-0.12, 0.0, 0.0)),
    ("r_elbow", 11, (-0.26, 0.0, 0.0)),
    ("r_wrist", 12, (-0.25, 0.0, 0.0)),
    ("l_hip", 0, (0.09, 0.0, -0.05)),
    ("l_knee", 14, (0.0, 0.0, -0.40)),
    ("l_ankle", 15, (0.0, 0.0, -0.40)),
    ("r_hip", 0, (-0.09, 0.0, -0.05)),
    ("r_knee", 17, (0.0, 0.0, -0.40)),
    ("r_ankle", 18, (0.0, 0.0, -0.40)),
]


def make_humanoid(q_limit=2.5, v_limit=12.0) -> Skeleton:
    n = len(_HUMANOID)
    return Skeleton(
        names=tuple(j[0] for j in _HUMANOID),
        parents=np.array([j[1] for j in _HUMANOID]),
        rest_offsets=np.array([j[2] for j in _HUMANOID], dtype=float),
        q_min=np.full((n, 3), -q_limit),
        q_max=np.full((n, 3), q_limit),
        v_min=np.full(n, -v_limit),
        v_max=np.full(n, v_limit),
        foot_joints=frozenset({16, 19}),
    )


def make_box(half=(0.15, 0.15, 0.15), subdiv=1) -> ObjectMesh:
    """Axis-aligned box surface; subdiv > 1 samples each edge that many times."""
    hx, hy, hz = half
    lin = {ax: np.linspace(-h, h, subdiv + 1) for ax, h in zip("xyz", (hx, hy, hz))}
    verts = []
    for x in lin["x"]:
        for y in lin["y"]:
            for z in lin["z"]:
                on_surface = (
                    abs(abs(x) - hx) < 1e-12
                    or abs(abs(y) - hy) < 1e-12
                    or abs(abs(z) - hz) < 1e-12
                )
                if on_surface:
                    verts.append((x, y, z))
    verts = np.array(verts, dtype=float)

    def corner(sx, sy, sz):
        target = np.array([sx * hx, sy * hy, sz * hz])
        return int(np.argmin(np.linalg.norm(verts - target, axis=1)))

    c = {(sx, sy, sz): corner(sx, sy, sz) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)}
    quads = [
        ((-1, -1, -1), (-1, -1, 1), (-1, 1, 1), (-1, 1, -1)),  # -x
        ((1, -1, -1), (1, 1, -1), (1, 1, 1), (1, -1, 1)),  # +x
        ((-1, -1, -1), (1, -1, -1), (1, -1, 1), (-1, -1, 1)),  # -y
        ((-1, 1, -1), (-1, 1, 1), (1, 1, 1), (1, 1, -1)),  # +y
        ((-1, -1, -1), (-1, 1, -1), (1, 1, -1), (1, -1, -1)),  # -z
        ((-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)),  # +z
    ]
    faces = []
    for q in quads:
        i0, i1, i2, i3 = (c[s] for s in q)
        faces.append([i0, i1, i2])
        faces.append([i0, i2, i3])
    return ObjectMesh(vertices=verts, faces=np.array(faces))


def random_pose(skeleton: Skeleton, rng: np.random.Generator, amplitude=0.8) -> Pose:
    return Pose(
        root_pos=rng.uniform(-1.0, 1.0, size=3),
        root_rot=quat_from_expmap(rng.uniform(-amplitude, amplitude, size=3)),
        joint_rots=rng.uniform(-amplitude, amplitude, size=(skeleton.joint_count - 1, 3)),
    )


CARRY_BOX_HALF = (0.09, 0.18, 0.15)

_ARM_BASE = {
    "l_shoulder": (0.0, 0.0, 1.2),
    "r_shoulder": (0.0, 0.0, -1.2),
    "l_elbow": (0.0, 0.0, 0.4),
    "r_elbow": (0.0, 0.0, -0.4),
}


def _carry_pose(skeleton: Skeleton) -> np.ndarray:
    names = list(skeleton.names)
    base = np.zeros((skeleton.joint_count - 1, 3))
    for name, rot in _ARM_BASE.items():
        base[names.index(name) - 1] = rot
    return base


def held_box_motion(skeleton: Skeleton, frames=100, fps=30.0, amplitude=0.2, phase=0.0) -> MotionSequence:
    """Standing humanoid gently swaying a box gripped between its hands.

    Arm joints move sinusoidally; legs, head, and root stay put so the motion
    is interaction-dominated. The box center rides the wrist midpoint, with
    the wrists resting just outside its +-x faces (CARRY_BOX_HALF geometry).
    The arms' sine starts at `phase` rad.
    """
    j = skeleton.joint_count
    names = list(skeleton.names)
    arm_axes = {}
    for name in ("l_shoulder", "l_elbow", "r_shoulder", "r_elbow", "l_wrist", "r_wrist"):
        arm_axes[names.index(name)] = np.array([0.0, 1.0, 0.0])
    base = _carry_pose(skeleton)

    root_pos = np.tile((0.0, 0.0, 1.0), (frames, 1))
    root_rots = np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1))
    joint_rots = np.tile(base, (frames, 1, 1))
    phases = amplitude * np.sin(2.0 * np.pi * np.arange(frames) / frames + phase)
    for jid, axis in arm_axes.items():
        joint_rots[:, jid - 1, :] = base[jid - 1] + phases[:, None] * axis

    obj_pos = np.empty((frames, 3))
    shape = ShapeParams.ones(j)
    lw, rw = names.index("l_wrist"), names.index("r_wrist")
    for t in range(frames):
        joints = fk(skeleton, shape, Pose(root_pos[t], root_rots[t], joint_rots[t]))
        obj_pos[t] = 0.5 * (joints[lw] + joints[rw])
    obj_rot = np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1))
    return MotionSequence(
        fps=fps,
        root_pos=root_pos,
        root_rot=root_rots,
        joint_rots=joint_rots,
        obj_pos=obj_pos,
        obj_rot=obj_rot,
    )


def partner_motion(skeleton: Skeleton, seq: MotionSequence) -> MotionSequence:
    """Static second agent standing across the object of `seq`, facing it.

    Rebuilds the carry posture mirrored through the box center, holding still
    for the whole sequence; shares the box trajectory.
    """
    frames = seq.frame_count
    j = skeleton.joint_count
    base = _carry_pose(skeleton)
    root_rot = quat_from_expmap((0.0, 0.0, np.pi))

    # place the mirrored root so the wrist midpoint lands across the box center
    names = list(skeleton.names)
    lw, rw = names.index("l_wrist"), names.index("r_wrist")
    trial = fk(skeleton, ShapeParams.ones(j), Pose(np.zeros(3), root_rot, base))
    midpoint = 0.5 * (trial[lw] + trial[rw])
    box0 = seq.obj_pos[0]
    target_mid = box0 + (0.0, 2.0 * CARRY_BOX_HALF[1] + 0.02, 0.0)
    root = target_mid - midpoint

    return MotionSequence(
        fps=seq.fps,
        root_pos=np.tile(root, (frames, 1)),
        root_rot=np.tile(root_rot, (frames, 1)),
        joint_rots=np.tile(base, (frames, 1, 1)),
        obj_pos=seq.obj_pos.copy(),
        obj_rot=seq.obj_rot.copy(),
    )


def expmap_to_mat(e: np.ndarray) -> np.ndarray:
    """Rodrigues rotation matrices of (..., 3) exponential-map vectors."""
    return rodrigues(e)[0]


def motion_frame_pose(seq: MotionSequence, t: int) -> Pose:
    """Frame t of a motion as a Pose of copies."""
    return Pose(root_pos=seq.root_pos[t].copy(), root_rot=seq.root_rot[t].copy(), joint_rots=seq.joint_rots[t].copy())


def vector_to_pose(x: np.ndarray, joint_count: int) -> Pose:
    """The Pose of a stored parameter vector, as kinematics.pose_to_vector lays it out."""
    return Pose(root_pos=x[0:3].copy(), root_rot=x[3:7].copy(), joint_rots=x[7:].reshape(joint_count - 1, 3).copy())


def central_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Finite-difference Jacobian oracle: rows = outputs, cols = parameters."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float).ravel())
    jac = np.empty((f0.size, x.size))
    for k in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[k] += step
        lo[k] -= step
        jac[:, k] = (np.asarray(f(hi), dtype=float).ravel() - np.asarray(f(lo), dtype=float).ravel()) / (2 * step)
    return jac


def tangent_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """central_difference of f(stored parameters) over the tangent layout at
    the stored vector x, through root_rot * exp(delta) at delta = 0."""
    return central_difference(lambda v: f(stored_vector(v, x[3:7])), tangent_vector(x), step)


def circumsphere(p):
    """Center and radius of the sphere through four points (direct solve)."""
    rel = p[1:] - p[0]
    sol = np.linalg.solve(2.0 * rel, np.einsum("ij,ij->i", rel, rel))
    return p[0] + sol, np.linalg.norm(sol)


def empty_circumsphere_ok(points, tets, rel_tol=1e-9):
    """Brute-force empty-circumsphere check over every tetra and every point."""
    for tet in tets:
        center, radius = circumsphere(points[tet])
        d = np.linalg.norm(points - center, axis=1)
        inside = (radius - d) / radius > rel_tol
        inside[list(tet)] = False
        if np.any(inside):
            return False
    return True


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b)) / scale)


def count_insertions(monkeypatch) -> list:
    """Per copy of a Bowyer-Watson state, the lengths of the point sets
    inserted into its copies in lockstep."""
    inserted = []
    extended = interactmesh._TetStore.extended
    monkeypatch.setattr(interactmesh._TetStore, "extended",
                        lambda store, point_sets: inserted.append([len(p) for p in point_sets])
                        or extended(store, point_sets))
    return inserted


@pytest.fixture(autouse=True)
def no_cached_seeds():
    """Each test starts and ends with no object seed state cached, so none
    built by another test, or under a patched predicate, reaches it."""
    interactmesh._seed_store.cache_clear()
    yield
    interactmesh._seed_store.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def chain4():
    return make_chain(4)


@pytest.fixture
def humanoid():
    return make_humanoid()


@pytest.fixture
def box():
    return make_box(half=CARRY_BOX_HALF, subdiv=3)
