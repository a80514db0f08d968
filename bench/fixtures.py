"""Seeded input generation: skeletons, carry motions, the carry box, files.

Everything here is built with the benchmark's own FK (``oracles``), and the
files are written in the formats the package documents, so the program under
test receives nothing but generated inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles

# 20-joint humanoid: name, parent, rest offset (m). Faces +y, z up.
HUMANOID = (
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
)
NAMES = [j[0] for j in HUMANOID]
PARENTS = np.array([j[1] for j in HUMANOID])
OFFSETS = np.array([j[2] for j in HUMANOID], dtype=float)
FEET = (16, 19)
Q_LIMIT = 2.5  # rad, every axis
V_LIMIT = 12.0  # rad/s
JOINTS = len(HUMANOID)
ARMS = [NAMES.index(n) for n in ("l_shoulder", "l_elbow", "r_shoulder", "r_elbow", "l_wrist", "r_wrist")]
WRISTS = (NAMES.index("l_wrist"), NAMES.index("r_wrist"))
BOX_HALF = (0.09, 0.18, 0.15)  # m; the +-x faces sit between the hands
CARRY_PERIOD = 0.8  # s


def carry_pose() -> np.ndarray:
    """(J-1, 3) exponential maps of the two-handed carry posture."""
    base = np.zeros((JOINTS - 1, 3))
    for name, angle in (("l_shoulder", 1.2), ("r_shoulder", -1.2), ("l_elbow", 0.4), ("r_elbow", -0.4)):
        base[NAMES.index(name) - 1] = (0.0, 0.0, angle)
    return base


def box_vertices(half=BOX_HALF, subdiv: int = 3) -> np.ndarray:
    """Surface points of a (subdiv + 1)^3 grid over the box: 56 for subdiv 3."""
    axes = [np.linspace(-h, h, subdiv + 1) for h in half]
    grid = np.array(np.meshgrid(*axes, indexing="ij")).reshape(3, -1).T
    on_face = np.any(np.isclose(np.abs(grid), half), axis=1)
    return grid[on_face]


def box_faces(vertices: np.ndarray, half=BOX_HALF) -> list[tuple[int, int, int]]:
    """Twelve corner triangles (the OBJ needs faces; the method reads vertices)."""
    def corner(sx, sy, sz):
        target = np.array([sx * half[0], sy * half[1], sz * half[2]])
        return int(np.argmin(np.linalg.norm(vertices - target, axis=1)))

    quads = (
        ((-1, -1, -1), (-1, -1, 1), (-1, 1, 1), (-1, 1, -1)),
        ((1, -1, -1), (1, 1, -1), (1, 1, 1), (1, -1, 1)),
        ((-1, -1, -1), (1, -1, -1), (1, -1, 1), (-1, -1, 1)),
        ((-1, 1, -1), (-1, 1, 1), (1, 1, 1), (1, 1, -1)),
        ((-1, -1, -1), (-1, 1, -1), (1, 1, -1), (1, -1, -1)),
        ((-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)),
    )
    faces = []
    for quad in quads:
        a, b, c, d = (corner(*s) for s in quad)
        faces += [(a, b, c), (a, c, d)]
    return faces


def yaw_quats(angles: np.ndarray) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    return np.stack([np.cos(0.5 * angles), 0 * angles, 0 * angles, np.sin(0.5 * angles)], axis=-1)


def rotate_z(vectors: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.asarray(vectors) @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T


def held_box_clip(rng: np.random.Generator, frames: int = 100, amplitude: float = 0.04) -> dict:
    """The identity-retargeting fixture: a standing humanoid swaying a box held
    between its hands, arms on one period of a sine of the given amplitude.

    The seed places the scene on the floor. Phase and heading stay fixed:
    both change the program's result (see the README), not only the inputs.
    """
    floor = rng.uniform(-2.0, 2.0, size=2)
    sway = amplitude * np.sin(2.0 * math.pi * np.arange(frames) / frames)
    joint_rots = np.tile(carry_pose(), (frames, 1, 1))
    for jid in ARMS:
        joint_rots[:, jid - 1, 1] += sway
    root_pos = np.tile((floor[0], floor[1], 1.0), (frames, 1))
    root_rot = np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1))
    joints = oracles.fk_frames(PARENTS, OFFSETS, np.ones(JOINTS), root_pos, root_rot, joint_rots)
    return {
        "fps": 30.0,
        "root_pos": root_pos,
        "root_rot": root_rot,
        "joint_rots": joint_rots,
        "obj_pos": 0.5 * (joints[:, WRISTS[0]] + joints[:, WRISTS[1]]),
        "obj_rot": root_rot.copy(),
    }


def carry_pair(rng: np.random.Generator, frames: int, phase: float, fps: float = 30.0) -> tuple[dict, dict]:
    """A two-person carry: agent A side-steps with the box between its hands,
    swaying its arms and turning a little; agent B stands across the box,
    holding the carry posture and following the box. Returns (A, B) clips.

    Gait and sway repeat every CARRY_PERIOD seconds; ``phase`` (rad) sets
    where in that cycle the clip starts. The seed places the carry on the
    floor; speeds, amplitudes and phase stay fixed because the solver's
    iteration count, and with it the run time, swings with them.
    """
    start = rng.uniform(-2.0, 2.0, size=2)
    speed = 0.4  # m/s along A's left-right (x) axis
    arm_amp = 0.15  # rad
    turn_amp = 0.05  # rad of heading
    freq = 1.0 / CARRY_PERIOD
    t = np.arange(frames) / fps
    wave = np.sin(2.0 * math.pi * freq * t + phase)

    yaw = turn_amp * wave
    root_rot = yaw_quats(yaw)
    root_pos = np.empty((frames, 3))
    root_pos[:, 0] = start[0] + speed * t
    root_pos[:, 1] = start[1]
    root_pos[:, 2] = 1.0 + 0.015 * np.cos(4.0 * math.pi * freq * t + phase)
    joint_rots = np.tile(carry_pose(), (frames, 1, 1))
    for jid in ARMS:
        joint_rots[:, jid - 1, 1] += arm_amp * wave
    joint_rots[:, NAMES.index("spine1") - 1, 0] += 0.05 * wave
    for hip, sign in ((NAMES.index("l_hip"), 1.0), (NAMES.index("r_hip"), -1.0)):
        joint_rots[:, hip - 1, 1] += sign * 0.15 * np.sin(4.0 * math.pi * freq * t + phase)
    joints = oracles.fk_frames(PARENTS, OFFSETS, np.ones(JOINTS), root_pos, root_rot, joint_rots)
    obj_pos = 0.5 * (joints[:, WRISTS[0]] + joints[:, WRISTS[1]])
    clip_a = {"fps": fps, "root_pos": root_pos, "root_rot": root_rot, "joint_rots": joint_rots,
              "obj_pos": obj_pos, "obj_rot": root_rot.copy()}

    # B faces A across the box, its wrist midpoint 2 * half-depth + 2 cm
    # beyond the box center along A's facing direction.
    base = carry_pose()
    b_yaw = yaw + math.pi
    local_mid = oracles.fk_frames(PARENTS, OFFSETS, np.ones(JOINTS), np.zeros(3), yaw_quats(0.0), base)[0]
    local_mid = 0.5 * (local_mid[WRISTS[0]] + local_mid[WRISTS[1]])
    ahead = np.stack([-np.sin(yaw), np.cos(yaw), np.zeros(frames)], axis=1)
    b_root = np.empty((frames, 3))
    for f in range(frames):
        b_root[f] = obj_pos[f] + (2.0 * BOX_HALF[1] + 0.02) * ahead[f] - rotate_z(local_mid, b_yaw[f])
    clip_b = {"fps": fps, "root_pos": b_root, "root_rot": yaw_quats(b_yaw),
              "joint_rots": np.tile(base, (frames, 1, 1)), "obj_pos": obj_pos.copy(),
              "obj_rot": root_rot.copy()}
    return clip_a, clip_b


def contact_labels(clip: dict, vertices: np.ndarray, near: float = 0.07, far: float = 0.2) -> np.ndarray:
    """(T, J) zone labels from each joint's distance to the nearest box vertex."""
    joints = oracles.fk_frames(PARENTS, OFFSETS, np.ones(JOINTS), clip["root_pos"], clip["root_rot"],
                               clip["joint_rots"])
    world = np.einsum("tij,vj->tvi", oracles.quat_to_mat(clip["obj_rot"]), vertices) + clip["obj_pos"][:, None]
    dist = np.linalg.norm(joints[:, :, None] - world[:, None], axis=3).min(axis=2)
    return np.where(dist < near, 1, np.where(dist <= far, 0, -1))


# ---------------------------------------------------------------------------
# files


def write_skeleton(path: Path, offsets: np.ndarray = OFFSETS) -> None:
    doc = {
        "joints": [
            {
                "name": NAMES[i],
                "parent": None if PARENTS[i] < 0 else int(PARENTS[i]),
                "offset": [float(v) for v in offsets[i]],
                "q_min": [-Q_LIMIT] * 3,
                "q_max": [Q_LIMIT] * 3,
                "v_min": -V_LIMIT,
                "v_max": V_LIMIT,
            }
            for i in range(JOINTS)
        ],
        "foot_joints": list(FEET),
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def write_motion(path: Path, clip: dict) -> None:
    frames = []
    for f in range(len(clip["root_pos"])):
        frame = {key: np.asarray(clip[key][f]).tolist()
                 for key in ("root_pos", "root_rot", "joint_rots", "obj_pos", "obj_rot")}
        if "contacts" in clip:
            frame["contacts"] = [int(c) for c in clip["contacts"][f]]
        frames.append(frame)
    Path(path).write_text(json.dumps({"fps": clip["fps"], "frames": frames}), encoding="utf-8")


def write_obj(path: Path, vertices: np.ndarray) -> None:
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in box_faces(vertices)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_motion(path: Path) -> dict:
    """A written motion file as arrays (the benchmark's own reader)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    frames = doc["frames"]
    out = {key: np.array([f[key] for f in frames], dtype=float)
           for key in ("root_pos", "root_rot", "joint_rots", "obj_pos", "obj_rot")}
    out["fps"] = float(doc["fps"])
    return out
