"""On-disk representations of skeletons, motion sequences, and object meshes.

Formats
-------
Skeleton JSON::

    {"joints": [{"name": str, "parent": int|null, "offset": [x,y,z],
                 "q_min": [3], "q_max": [3], "v_min": float, "v_max": float}],
     "foot_joints": [int, ...]}

Motion JSON::

    {"fps": float,
     "frames": [{"root_pos": [3], "root_rot": [4 wxyz], "joint_rots": [[3] x (J-1)],
                 "obj_pos": [3], "obj_rot": [4], "contacts": [int x J]?}]}

Object mesh: an OBJ subset where only ``v x y z`` and ``f i j k`` lines are
honored; every other line is ignored. Face indices are 1-based on disk and
0-based in memory.

All loaded types are immutable; load never alters numeric values except
quaternion renormalization within 1e-3 of unit norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DataError, Range

QUAT_RENORM_TOL = 1e-3
_INDEX = Range(int)  # a joint index: an int, not a bool or 1.0, as contact labels


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _first_frame(mask: np.ndarray) -> int:
    """The first frame (leading index) where the per-frame mask is set."""
    return int(np.argmax(mask.reshape(len(mask), -1).any(axis=1)))


@dataclass(frozen=True)
class Skeleton:
    """Rooted joint tree with per-bone rest offsets and joint/velocity limits.

    Joints are topologically ordered: the root sits at index 0 and every other
    joint's parent index is smaller than its own. ``parents[0] == -1``.
    """

    names: tuple[str, ...]
    parents: np.ndarray  # (J,) int, -1 for the root
    rest_offsets: np.ndarray  # (J, 3) meters
    q_min: np.ndarray  # (J, 3) radians, per rotational axis
    q_max: np.ndarray  # (J, 3)
    v_min: np.ndarray  # (J,) radians/second
    v_max: np.ndarray  # (J,)
    foot_joints: frozenset[int] = field(default_factory=frozenset)

    @property
    def joint_count(self) -> int:
        return len(self.names)

    def __post_init__(self):
        j = len(self.names)
        parents = np.asarray(self.parents, dtype=int)
        root_count = int(np.sum(parents < 0))
        if root_count != 1 or parents[0] != -1:
            raise DataError(f"expected exactly one root at index 0, found {root_count} root(s)")
        for i in range(1, j):
            if not 0 <= parents[i] < i:
                raise DataError(
                    f"joint '{self.names[i]}' (index {i}) has parent {parents[i]}; "
                    "joints must be topologically ordered"
                )
        for name in ("q_min", "q_max", "v_min", "v_max"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DataError(f"{name} contains non-finite values")
        for i in range(j):
            if np.any(self.q_min[i] > self.q_max[i]):
                raise DataError(f"joint '{self.names[i]}': q_min exceeds q_max")
            if self.v_min[i] > self.v_max[i]:
                raise DataError(f"joint '{self.names[i]}': v_min exceeds v_max")
        bad_feet = [f for f in self.foot_joints if not 0 <= f < j]
        if bad_feet:
            raise DataError(f"foot joint indices out of range: {sorted(bad_feet)}")
        if not np.all(np.isfinite(self.rest_offsets)):
            raise DataError("rest offsets contain non-finite values")
        for name in ("parents", "rest_offsets", "q_min", "q_max", "v_min", "v_max"):
            _freeze(getattr(self, name))


@dataclass(frozen=True)
class ShapeParams:
    """Per-bone positive scale multipliers on rest offset lengths."""

    bone_scales: np.ndarray  # (J,) dimensionless

    def __post_init__(self):
        scales = np.asarray(self.bone_scales, dtype=float)
        if np.any(scales <= 0) or not np.all(np.isfinite(scales)):
            raise DataError("bone scales must be positive and finite")
        _freeze(scales)

    @classmethod
    def ones(cls, joint_count: int) -> "ShapeParams":
        return cls(bone_scales=np.ones(joint_count))


@dataclass(frozen=True)
class MotionSequence:
    """Fixed-rate motion: root pose, non-root exponential maps, object pose.

    joint_rots has one 3-vector per non-root joint, i.e. shape (T, J-1, 3) for
    a J-joint skeleton. contacts, when present, carries one label per joint in
    {-1, 0, 1}.
    """

    fps: float
    root_pos: np.ndarray  # (T, 3)
    root_rot: np.ndarray  # (T, 4) wxyz, unit
    joint_rots: np.ndarray  # (T, J-1, 3)
    obj_pos: np.ndarray  # (T, 3)
    obj_rot: np.ndarray  # (T, 4)
    contacts: np.ndarray | None = None  # (T, J) int

    @property
    def frame_count(self) -> int:
        return self.root_pos.shape[0]

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    def __post_init__(self):
        if not (np.isfinite(self.fps) and self.fps > 0):
            raise DataError(f"fps must be positive and finite, got {self.fps}")
        t = self.root_pos.shape[0]
        if t == 0:
            raise DataError("a motion needs at least one frame")
        for name, expected in (
            ("root_pos", (t, 3)),
            ("root_rot", (t, 4)),
            ("obj_pos", (t, 3)),
            ("obj_rot", (t, 4)),
        ):
            if getattr(self, name).shape != expected:
                raise DataError(f"{name} has shape {getattr(self, name).shape}, expected {expected}")
        if self.joint_rots.ndim != 3 or self.joint_rots.shape[0] != t or self.joint_rots.shape[2] != 3:
            raise DataError(f"joint_rots has shape {self.joint_rots.shape}, expected (T, J-1, 3)")
        for name in ("root_rot", "obj_rot"):
            norms = np.linalg.norm(getattr(self, name), axis=1)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > 1e-6:
                raise DataError(f"{name} contains a quaternion with norm deviation {worst:.3g} > 1e-6")
        if self.contacts is not None:
            if self.contacts.shape[0] != t:
                raise DataError("contacts frame count mismatch")
            labeled = np.isin(self.contacts, (-1, 0, 1))
            if not np.all(labeled):
                raise DataError(f"frame {_first_frame(~labeled)} contact labels must lie in {{-1, 0, 1}}")
        for name in ("root_pos", "root_rot", "joint_rots", "obj_pos", "obj_rot"):
            finite = np.isfinite(getattr(self, name))
            if not np.all(finite):
                raise DataError(f"frame {_first_frame(~finite)} {name} contains non-finite values")
            _freeze(getattr(self, name))
        if self.contacts is not None:
            _freeze(self.contacts)


@dataclass(frozen=True)
class ObjectMesh:
    vertices: np.ndarray  # (V, 3) meters, object frame
    faces: np.ndarray  # (F, 3) int, 0-based

    def __post_init__(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise DataError(f"vertices must be (V, 3), got {self.vertices.shape}")
        if len(self.vertices) == 0:
            raise DataError("object has no vertices")
        if not np.all(np.isfinite(self.vertices)):
            raise DataError("object vertices contain non-finite values")
        if len(self.faces) and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise DataError(
                f"face references vertex outside [0, {len(self.vertices) - 1}]"
            )
        _freeze(self.vertices)
        _freeze(self.faces)


# ---------------------------------------------------------------------------
# loading


def _require(cond: bool, message: str):
    if not cond:
        raise DataError(message)


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a DataError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def read_json(path):
    """Parsed JSON document; malformed JSON is a DataError naming the line."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _number_array(value, shape: tuple[int, ...]) -> np.ndarray | None:
    """value as a float array of the given shape, or None unless it nests
    lists of ints and floats in that shape: no bool and no text, as for joint
    indices and contact labels. Each level is checked and flattened at C
    speed, which costs less than np.array's own walk of the nested lists."""
    level = [value]
    for n in shape:
        if not (set(map(type, level)) <= {list} and set(map(len, level)) <= {n}):
            return None
        level = list(chain.from_iterable(level))
    if not set(map(type, level)) <= {int, float}:
        return None
    try:
        return np.fromiter(level, dtype=float, count=len(level)).reshape(shape)
    except OverflowError:  # an int beyond a float's range
        return None


def _numbers(path, items: list, what: str, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """Every item's `key` as one float array of shape (len(items),) + shape;
    a DataError names the file and the first item whose value is not such
    numbers."""
    array = _number_array([item[key] for item in items], (len(items),) + shape)
    if array is not None:
        return array
    expected = "a number" if not shape else " lists of ".join(map(str, shape)) + " numbers"
    for i, item in enumerate(items):  # the stacked array failed, so some item raises here
        _require(_number_array(item[key], shape) is not None,
                 f"{path}: {what} {i} {key} must be {expected}, got {item[key]!r}")


def load_skeleton(path) -> Skeleton:
    raw = read_json(path)
    _require(isinstance(raw, dict) and "joints" in raw, f"{path}: missing 'joints' field")
    joints = raw["joints"]
    _require(isinstance(joints, list) and joints, f"{path}: 'joints' must be a non-empty list")
    parents = []
    for idx, joint in enumerate(joints):  # per joint and foot, a message is formatted only on failure
        if not isinstance(joint, dict):
            raise DataError(f"{path}: joint {idx} must be a JSON object")
        for key in ("name", "parent", "offset", "q_min", "q_max", "v_min", "v_max"):
            if key not in joint:
                raise DataError(f"{path}: joint {idx} missing field '{key}'")
        if not isinstance(joint["name"], str):
            raise DataError(f"{path}: joint {idx} name must be a string, got {joint['name']!r}")
        parent = joint["parent"]
        if not (parent is None or _INDEX.admits(parent)):
            raise DataError(f"{path}: joint {idx} parent must be a joint index or null, got {parent!r}")
        # one beyond every joint index may be too large for np.array's int
        if not (parent is None or abs(parent) < len(joints)):
            raise DataError(f"{path}: joint '{joint['name']}' (index {idx}) has parent {parent}; "
                            "joints must be topologically ordered")
        parents.append(-1 if parent is None else parent)
    feet = raw.get("foot_joints", [])
    _require(isinstance(feet, list), f"{path}: foot_joints must list joint indices, got {feet!r}")
    for foot in feet:
        if not _INDEX.admits(foot):
            raise DataError(f"{path}: foot joint {foot!r} is not a joint index")
    arrays = {name: _numbers(path, joints, "joint", key, shape) for name, key, shape in (
        ("rest_offsets", "offset", (3,)), ("q_min", "q_min", (3,)), ("q_max", "q_max", (3,)),
        ("v_min", "v_min", ()), ("v_max", "v_max", ()))}
    try:
        return Skeleton(names=tuple(joint["name"] for joint in joints), parents=np.array(parents, dtype=int),
                        foot_joints=frozenset(feet), **arrays)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _renormalize(quats: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(quats, axis=1)
    deviation = np.abs(norms - 1.0)
    if np.any(deviation > QUAT_RENORM_TOL):
        frame = int(np.argmax(deviation))
        raise DataError(
            f"{what} quaternion at frame {frame} has norm deviation "
            f"{deviation[frame]:.4g} > {QUAT_RENORM_TOL}"
        )
    # Only touch rows that actually deviate, so reloading a canonical file
    # reproduces it bit for bit.
    needs = deviation > 1e-9
    if np.any(needs):
        quats = quats.copy()
        quats[needs] /= norms[needs, None]
    return quats


def load_motion(path, skeleton: Skeleton) -> MotionSequence:
    raw = read_json(path)
    _require(isinstance(raw, dict) and "fps" in raw and "frames" in raw, f"{path}: motion file needs 'fps' and 'frames'")
    fps = _number_array(raw["fps"], ())
    _require(fps is not None, f"{path}: fps must be a number, got {raw['fps']!r}")
    fps = float(fps)
    _require(np.isfinite(fps) and fps > 0, f"{path}: fps must be positive and finite, got {fps}")
    frames = raw["frames"]
    _require(isinstance(frames, list) and frames, f"{path}: 'frames' must be a non-empty list")
    j = skeleton.joint_count
    has_contacts = isinstance(frames[0], dict) and "contacts" in frames[0]
    contacts = []
    for t, frame in enumerate(frames):
        if not isinstance(frame, dict):  # per frame, so a message is formatted only on failure
            raise DataError(f"{path}: frame {t} must be a JSON object")
        for key in ("root_pos", "root_rot", "joint_rots", "obj_pos", "obj_rot"):
            if key not in frame:
                raise DataError(f"{path}: frame {t} missing field '{key}'")
        rots = frame["joint_rots"]
        if isinstance(rots, list) and len(rots) != j - 1:
            raise DataError(
                f"{path}: frame {t} has {len(rots)} joint_rots but the skeleton "
                f"has {j} joints (expected {j - 1})"
            )
        if has_contacts:
            labels = frame.get("contacts")
            _require(isinstance(labels, list) and len(labels) == j,
                     f"{path}: frame {t} contacts must list {j} labels")
            contacts.append(labels)
        elif "contacts" in frame:
            raise DataError(f"{path}: frame {t} has contacts but frame 0 has none")
    if not set(map(type, chain.from_iterable(contacts))) <= {int}:  # as errors.Range(int): no bool, no 1.0
        t = next(t for t, row in enumerate(contacts) if not set(map(type, row)) <= {int})
        raise DataError(f"{path}: frame {t} contact labels must be integers, got {contacts[t]!r}")
    arrays = {key: _numbers(path, frames, "frame", key, shape) for key, shape in (
        ("root_pos", (3,)), ("root_rot", (4,)), ("joint_rots", (j - 1, 3)), ("obj_pos", (3,)), ("obj_rot", (4,)))}
    try:
        return MotionSequence(
            fps=fps, root_pos=arrays["root_pos"], root_rot=_renormalize(arrays["root_rot"], "root"),
            joint_rots=arrays["joint_rots"], obj_pos=arrays["obj_pos"],
            obj_rot=_renormalize(arrays["obj_rot"], "object"),
            contacts=np.array(contacts) if has_contacts else None,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_obj(path) -> ObjectMesh:
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise DataError(f"{path}:{lineno}: vertex line needs 3 coordinates")
            try:  # per line, so a message is formatted only on failure
                vertex = [float(p) for p in parts[1:4]]
                if not all(map(math.isfinite, vertex)):  # float() also reads nan and inf
                    raise ValueError
            except ValueError:
                raise DataError(f"{path}:{lineno}: vertex coordinates must be numbers") from None
            vertices.append(vertex)
        elif parts[0] == "f":
            if len(parts) < 4:
                raise DataError(f"{path}:{lineno}: face line needs 3 indices")
            try:
                idx = [int(p.split("/")[0]) - 1 for p in parts[1:4]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: face indices must be integers") from None
            for i in idx:
                if not 0 <= i < len(vertices):
                    raise DataError(
                        f"{path}:{lineno}: face references vertex {i + 1} "
                        f"but only {len(vertices)} vertices are defined"
                    )
            faces.append(idx)
    if not vertices:
        raise DataError(f"{path}: no vertex ('v') lines")
    try:
        return ObjectMesh(vertices=np.array(vertices, dtype=float), faces=np.array(faces, dtype=int).reshape(-1, 3))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# saving (canonical formats; save(load(x)) is byte-identical)


def _vec(values) -> list[float]:
    return [float(v) for v in values]


def save_skeleton(skeleton: Skeleton, path) -> None:
    doc = {
        "joints": [
            {
                "name": skeleton.names[i],
                "parent": None if skeleton.parents[i] < 0 else int(skeleton.parents[i]),
                "offset": _vec(skeleton.rest_offsets[i]),
                "q_min": _vec(skeleton.q_min[i]),
                "q_max": _vec(skeleton.q_max[i]),
                "v_min": float(skeleton.v_min[i]),
                "v_max": float(skeleton.v_max[i]),
            }
            for i in range(skeleton.joint_count)
        ],
        "foot_joints": sorted(skeleton.foot_joints),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def save_motion(seq: MotionSequence, path) -> None:
    frames = []
    for t in range(seq.frame_count):
        frame = {
            "root_pos": _vec(seq.root_pos[t]),
            "root_rot": _vec(seq.root_rot[t]),
            "joint_rots": [_vec(r) for r in seq.joint_rots[t]],
            "obj_pos": _vec(seq.obj_pos[t]),
            "obj_rot": _vec(seq.obj_rot[t]),
        }
        if seq.contacts is not None:
            frame["contacts"] = [int(c) for c in seq.contacts[t]]
        frames.append(frame)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fps": seq.fps, "frames": frames}, fh, indent=2)
        fh.write("\n")


def save_obj(mesh: ObjectMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for f in mesh.faces:
            fh.write(f"f {int(f[0]) + 1} {int(f[1]) + 1} {int(f[2]) + 1}\n")
