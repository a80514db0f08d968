"""Per-frame retargeting objective and the sequential sequence optimizer.

Each frame minimizes the interaction-preserving deformation energy of Ho,
Komura & Tai ("Spatial Relationship Preserving Character Motion Adaptation",
SIGGRAPH 2010) on the frame's interact mesh, plus regularizers:

  laplacian   sum_tet || L(source tet) - L(target tet(q)) ||_F^2
  temporal    || x - x_pred ||^2 over the full stored parameter vector
  vlimit      sum max(0, v_min*dt - dq) + max(0, dq - v_max*dt), dq = q - q_prev
  slide       sum_f || p_f(x) - p_f(x_prev) ||^2 over feet whose *source*
              horizontal speed is below the threshold (z up)

x_prev is the previous frame's solution and x_pred its prediction from the
source's own motion (`predict_frame`): x_prev moved by the source's change
from the previous frame, so the temporal term tracks the source's velocity
rather than holding the pose still (velocity-level tracking, Choi & Ko,
"Online Motion Retargetting", JVCA 2000). With target = source every term is
zero at the source pose, so identity retargeting reproduces the source.

`FrameStack` is the one implementation of this objective, for the K targets
of one clip frame, which share its interact mesh; one target alone is a
stack of one. Each evaluation answers the targets row by row, and each row
equals what its target gets alone, so the targets can be solved in lockstep.
The terms are functions of the stored parameters, but Gauss-Newton steps in
kinematics' tangent layout, (root_pos, delta, joint exp-maps) with root
rotation q_a * exp(delta) around the prediction's quaternion q_a: no step
can scale the quaternion, so the solve does not depend on the scene's
heading, and the stored quaternion is normalized once, when a frame's
result is written. For the targets' vectors the stack runs one kinematics
pass, kept until an evaluation at another point, and derives from it the
weighted terms (the loss), the gradient, or the Gauss-Newton normal
equations of the least-squares terms (with the FK Jacobian); Gauss-Newton
asks for the normal equations only on rows and points of its last loss
call, so each point costs one pass. A tetrahedron's Laplacian
is A P with A = 4I - 11^T acting on its four points, so the Laplacian
difference is linear in the offsets dP of the agent's joints from their
source coordinates in the mesh. With the joint-by-joint stiffness K_lap,
which sums A^T A = 16I - 4*11^T over each tetrahedron's agent-A slots, the
term is w * sum dP . (K_lap dP), its part of J^T r is w * K_lap dP, and its
block of J^T J is w * fk_jac^T (K_lap ⊗ I3) fk_jac; the slide term adds its
weight on the gated feet's diagonal. K_lap is built once per frame mesh, for
all of the frame's targets.

Hinge terms use subgradient 0 at the kink. Frames are optimized in time
order, each warm-started at its prediction x_pred. Joint limits are a
constraint with no penalty term: `FrameStack.bounds` hands them to the
descent loop as a box, into which it clips every point before it evaluates
it, so outputs satisfy them exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, EmptyInteractMeshError, NumericalError, check_settings, setting
from .interactmesh import (
    AGENT_A,
    DelaunaySeed,
    InteractMesh,
    RetentionRule,
    build_interact_mesh,
    farthest_point_subsample,
    laplacians,
    object_frame_joints,
)
from .kinematics import fk_jacobian_vector, fk_sequence, fk_vector, stacked_kinematics, stored_vector, tangent_vector
from .motionio import MotionSequence, ObjectMesh, ShapeParams, Skeleton
from .optim import OptimizerConfig, levenberg_marquardt, lockstep_levenberg_marquardt
from .rotations import quat_left_matrix, quat_mul, quat_normalize, quat_to_mat, rodrigues, row_dots

TERM_NAMES = ("laplacian", "temporal", "vlimit", "slide")
_TET_ATA = 16.0 * np.eye(4) - 4.0  # A^T A for a tetrahedron's Laplacian operator A = 4I - 11^T


@dataclass(frozen=True)
class RetargetConfig:
    laplacian_weight: float = setting(1.0, ge=0)
    temporal_weight: float = setting(1.0, ge=0)
    velocity_limit_weight: float = setting(1.0, ge=0)
    foot_slide_weight: float = setting(1.0, ge=0)
    foot_speed_threshold: float = setting(0.01, gt=0)  # m/s, evaluated on the source feet
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    retention: RetentionRule = field(default_factory=RetentionRule)
    max_object_vertices: int = setting(64, ge=1)

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class FrameLoss:
    frame: int
    total: float
    laplacian: float
    temporal: float
    vlimit: float
    slide: float
    mesh_empty: bool
    iterations: int
    converged: bool


@dataclass(frozen=True)
class RetargetResult:
    sequence: MotionSequence
    per_frame_losses: tuple[FrameLoss, ...]
    iterations: int
    converged: bool


def _agent_rows(mesh: InteractMesh) -> tuple[np.ndarray, np.ndarray]:
    rows = [i for i, p in enumerate(mesh.points.provenance) if p[0] == AGENT_A]
    joints = [mesh.points.provenance[i][1] for i in rows]
    return np.asarray(rows, dtype=int), np.asarray(joints, dtype=int)


def target_point_cloud(mesh: InteractMesh, target_joints: np.ndarray) -> np.ndarray:
    """Mesh point coordinates with agent-A rows replaced by target joints."""
    rows, joints = _agent_rows(mesh)
    coords = mesh.points.coordinates.copy()
    coords[rows] = target_joints[joints]
    return coords


def laplacian_residuals(mesh: InteractMesh, target_joints: np.ndarray) -> np.ndarray:
    """Per-tetrahedron Frobenius norm of L(source) - L(target)."""
    coords = target_point_cloud(mesh, target_joints)
    diff = laplacians(coords[mesh.tetrahedra]) - mesh.reference_laplacians
    return np.sqrt(np.einsum("mij,mij->m", diff, diff))


def predict_frame(x_prev: np.ndarray, source_prev: np.ndarray, source: np.ndarray) -> np.ndarray:
    """The stored-layout x_prev moved by the source's change from source_prev
    to source: root position and joint exp-maps add the source's difference,
    and the root quaternion becomes q_prev * conj(q^s_prev) * q^s, normalized
    and taken in q_prev's hemisphere, so the signs of the source quaternions
    do not matter."""
    x = x_prev + (source - source_prev)
    q = quat_normalize(quat_mul(x_prev[3:7], quat_mul(source_prev[3:7] * (1.0, -1.0, -1.0, -1.0), source[3:7])))
    x[3:7] = q if q @ x_prev[3:7] >= 0.0 else -q
    return x


def _laplacian_stiffness(mesh: InteractMesh, joint_count: int) -> tuple[np.ndarray, np.ndarray]:
    """The joints' (J, 3) source coordinates in the mesh and the (J, J)
    Laplacian stiffness K_lap; zeros without a mesh.

    joint_lap[j, (m, s)] = d L[m, s] / d p_j is the operator A = 4I - 11^T
    restricted to agent-A slots. The Laplacian difference is linear in the
    joints' offsets dP from their source coordinates, diff = joint_lap^T dP,
    so the term is dP . (K_lap dP) and J^T r pulls the joints by K_lap dP,
    with K_lap = joint_lap @ joint_lap^T: each tetrahedron adds its A^T A =
    16I - 4*11^T at each ordered pair of its agent-A slots, 12 on a joint's
    diagonal and -4 for a pair of joints. The entries are small integers,
    summed exactly.
    """
    source = np.zeros((joint_count, 3))
    if mesh is None:
        return source, np.zeros((joint_count, joint_count))
    rows, joints = _agent_rows(mesh)
    source[joints] = mesh.points.coordinates[rows]
    slot_joint = np.full(len(mesh.points.coordinates), -1)
    slot_joint[rows] = joints
    tet_joints = slot_joint[mesh.tetrahedra]
    agent = tet_joints >= 0
    pair = agent[:, :, None] & agent[:, None, :]  # (M, 4, 4): both slots hold agent-A joints
    keys = tet_joints[:, :, None] * joint_count + tet_joints[:, None, :]
    stiffness = np.bincount(keys[pair], weights=np.broadcast_to(_TET_ATA, pair.shape)[pair],
                            minlength=joint_count * joint_count)
    return source, stiffness.reshape(joint_count, joint_count)


class FrameStack:
    """One clip frame's weighted objective for K targets that share the
    frame's interact mesh, each around its own previous solution x_prev and
    prediction x_pred.

    The targets share the joint tree and rest offsets of the first skeleton
    and differ in bone scales, joint and velocity limits and gated slide feet
    (`slide_feet`, one tuple of joints per target), and the clip's dt scales
    the velocity limits. `bounds`, (lo, hi) of (K, P) each, is the box on
    the tangent vectors: the joint limits, and +-inf on the root. K_lap comes
    from the mesh alone and is built once for all of them. Every evaluation
    takes `rows`, the ascending indices of the m targets asked about, with
    their (m, ·) points, and answers row by row: one target's row equals
    what it gets asked alone, so a lockstep solve and a solo one take the
    same steps. The temporal term measures from x_pred; the velocity hinges
    and the slide anchor measure from x_prev. `terms` takes stored parameters; the other
    evaluations take tangent vectors at each target's anchor quaternion (by
    default x_pred's), see kinematics.stored_vector. Only the last
    evaluation's point is kept, for later calls on its rows at its vectors.
    """

    def __init__(
        self,
        skeletons: Sequence[Skeleton],
        shapes: Sequence[ShapeParams],
        x_prev: np.ndarray,
        dt: float,
        slide_feet: Sequence[Sequence[int]],
        mesh: InteractMesh | None,
        cfg: RetargetConfig,
        x_pred: np.ndarray | None = None,
        anchor: np.ndarray | None = None,
    ):
        self.skeleton, self.cfg, self.count = skeletons[0], cfg, len(skeletons)
        joint_count = self.skeleton.joint_count
        self.x_prev = x_prev
        self.x_pred = x_prev if x_pred is None else x_pred
        self.anchor = self.x_pred[:, 3:7] if anchor is None else anchor
        self.mesh = mesh if mesh is not None and mesh.tet_count else None
        self.scales = np.array([shape.bone_scales for shape in shapes])
        free = np.full(6, np.inf)
        self.bounds = (np.array([np.concatenate([-free, s.q_min[1:].ravel()]) for s in skeletons]),
                       np.array([np.concatenate([free, s.q_max[1:].ravel()]) for s in skeletons]))
        # each target's bounds on the change dq of its joint exp-maps over the
        # frame, (K, 3(J-1)) in the exp-maps' stored order
        self.dq_min = np.array([np.repeat(s.v_min[1:], 3) for s in skeletons]) * dt
        self.dq_max = np.array([np.repeat(s.v_max[1:], 3) for s in skeletons]) * dt
        # the (K, J) mask of each target's gated feet, and for a target with
        # any, its joints' positions under x_prev, which the slide term holds
        self.feet = np.zeros((self.count, joint_count), dtype=bool)
        self.held = np.zeros((self.count, joint_count, 3))
        for k, feet in enumerate(slide_feet):
            if len(feet):
                self.feet[k, list(feet)] = True
                self.held[k] = fk_vector(skeletons[k], shapes[k], x_prev[k])
        self.source, self.lap_stiffness = _laplacian_stiffness(self.mesh, joint_count)
        # the slide term adds its weight on the gated feet's diagonal
        self.stiffness = np.repeat((cfg.laplacian_weight * self.lap_stiffness)[None], self.count, axis=0)
        target, foot = np.nonzero(self.feet)
        self.stiffness[target, foot, foot] += cfg.foot_slide_weight
        # the last _point_at call's point: each target's slot in it (-1 when
        # absent), its tangent vectors, and its stored vectors and kinematics pass
        self._slots = np.full(self.count, -1)
        self._xi = self._point = None

    def _take(self, rows: np.ndarray):
        """The index that selects the rows' targets: every target, in order,
        as a slice (views, no copies), else the rows."""
        return slice(None) if len(rows) == self.count else rows

    def _pass(self, rows: np.ndarray, x: np.ndarray):
        """The kinematics pass of the targets' stored vectors x, or None when
        no term of theirs reads joint positions."""
        take = self._take(rows)
        if self.mesh is None and not self.feet[take].any():
            return None
        return stacked_kinematics(self.skeleton, self.scales[take], x)

    def _kept(self, rows: np.ndarray, xi: np.ndarray):
        """The kept point's stored vectors and pass for the rows' targets, when
        each one is in it at its row of xi; else None."""
        slots = self._slots[rows]
        # -1 in a list: about 2 us less a call than (slots < 0).any()
        if -1 in slots.tolist() or self._xi[slots].tobytes() != xi.tobytes():
            return None
        if len(slots) == len(self._xi):  # the kept call's own rows
            return self._point
        x, kinematics = self._point
        return x[slots], kinematics and (kinematics[0],) + tuple(a[slots] for a in kinematics[1:])

    def _point_at(self, rows: np.ndarray, xi: np.ndarray):
        """The targets' stored vectors at the tangent vectors xi and their
        kinematics pass: the kept point's when it is at xi, else a new point,
        kept in its place."""
        point = self._kept(rows, xi)
        if point is not None:
            return point
        x = stored_vector(xi, self.anchor[self._take(rows)])
        kinematics = self._pass(rows, x)
        for array in (x, *(kinematics or ())[1:]):
            array.flags.writeable = False  # served again to later calls
        self._slots[:] = -1
        self._slots[rows] = np.arange(len(rows))
        self._xi, self._point = xi.copy(), (x, kinematics)
        return self._point

    def solution(self, rows: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The targets' stored vectors at the tangent vectors xi, each root
        quaternion normalized, and their terms there. The kept point serves
        when it is at xi, and its pass only when normalizing moved no byte."""
        x, kinematics = self._kept(rows, xi) or (stored_vector(xi, self.anchor[self._take(rows)]), None)
        normalized = x.copy()
        for v in normalized:
            v[3:7] = quat_normalize(v[3:7])
        moved = normalized.tobytes() != x.tobytes()
        return normalized, self.terms(rows, normalized, None if moved else kinematics)

    def terms(self, rows: np.ndarray, x: np.ndarray, kinematics=None) -> dict[str, np.ndarray]:
        """Per-term weighted objective, (m,) per term, at stored vectors x,
        from their kinematics pass when it is given, else from a new one."""
        cfg, m, take = self.cfg, len(rows), self._take(rows)
        terms = dict.fromkeys(TERM_NAMES, np.zeros(m))  # the absent terms
        if kinematics is None:
            kinematics = self._pass(rows, x)
        positions = None if kinematics is None else kinematics[2]
        if self.mesh is not None:
            offsets = positions - self.source
            pull = self.lap_stiffness @ offsets
            terms["laplacian"] = cfg.laplacian_weight * np.einsum("kij,kij->k", offsets, pull)
        d = x - self.x_pred[take]
        terms["temporal"] = cfg.temporal_weight * row_dots(d, d)

        dq = x[:, 7:] - self.x_prev[take, 7:]
        vlow = np.maximum(0.0, self.dq_min[take] - dq)
        vhigh = np.maximum(0.0, dq - self.dq_max[take])
        terms["vlimit"] = cfg.velocity_limit_weight * (np.add.reduce(vlow, axis=1) + np.add.reduce(vhigh, axis=1))

        feet = self.feet[take]
        if feet.any():
            slide = np.where(feet[..., None], positions - self.held[take], 0.0)
            terms["slide"] = cfg.foot_slide_weight * np.einsum("kij,kij->k", slide, slide)
        return terms

    def loss(self, rows: np.ndarray, xi: np.ndarray) -> np.ndarray:
        terms = self.terms(rows, *self._point_at(rows, xi))
        total = terms[TERM_NAMES[0]]
        for name in TERM_NAMES[1:]:
            total = total + terms[name]
        return total

    def normal_equations(self, rows: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J^T J, J^T r), (m, P, P) and (m, P), over the tangent vectors xi
        of the least-squares terms (laplacian, temporal, slide), whose sum is
        ||r||^2; the hinge terms are not least-squares."""
        cfg, take = self.cfg, self._take(rows)
        x, kinematics = self._point_at(rows, xi)
        # d(q_a * exp(delta))/d(delta) = 1/2 L(q)[:, 1:] J_r(delta) at
        # q = q_a * exp(delta); the FK Jacobian's root-rotation columns, over
        # the right perturbation at q, take the same J_r(delta)
        right_jac = rodrigues(xi[:, 3:6])[1].transpose(0, 2, 1)
        quat_jac = 0.5 * np.array([quat_left_matrix(q) for q in x[:, 3:7]])[:, :, 1:] @ right_jac
        quat_jac_t = quat_jac.transpose(0, 2, 1)
        d = x - self.x_pred[take]
        jtj = np.repeat((cfg.temporal_weight * np.eye(xi.shape[1]))[None], len(rows), axis=0)
        jtj[:, 3:6, 3:6] = cfg.temporal_weight * (quat_jac_t @ quat_jac)
        jtr = cfg.temporal_weight * np.concatenate([d[:, :3], (quat_jac_t @ d[:, 3:7, None])[..., 0], d[:, 7:]],
                                                   axis=1)
        # fk_jac (m, 3J, 3J + 3), from the pass the loss made at x, for the
        # targets with a mesh or gated feet; the kept pass may cover other
        # targets too, so whether one is needed comes from the rows alone
        if self.mesh is None and not self.feet[take].any():
            return jtj, jtr
        moved = slice(None) if self.mesh is not None else self.feet[take].any(axis=1)
        rows, x = rows[moved], x[moved]
        kinematics = (kinematics[0],) + tuple(array[moved] for array in kinematics[1:])
        positions, fk_jac = fk_jacobian_vector(self.skeleton, None, x, kinematics)
        fk_jac[:, :, 3:6] = fk_jac[:, :, 3:6] @ right_jac[moved]
        take = self._take(rows)
        pull = np.zeros_like(positions)  # J^T r over joint positions
        if self.mesh is not None:
            pull += cfg.laplacian_weight * (self.lap_stiffness @ (positions - self.source))
        feet = self.feet[take]
        pull[feet] += cfg.foot_slide_weight * (positions[feet] - self.held[take][feet])
        n = len(rows)
        stiffness = self.stiffness[take]
        stiff_jac = (stiffness @ fk_jac.reshape(n, positions.shape[1], -1)).reshape(fk_jac.shape)
        jtj[moved] += fk_jac.transpose(0, 2, 1) @ stiff_jac
        jtr[moved] += (pull.reshape(n, 1, -1) @ fk_jac)[:, 0]
        return jtj, jtr

    def hinge_gradient(self, rows: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Subgradient of the velocity-limit hinges (0 at the kink)."""
        cfg, take = self.cfg, self._take(rows)
        grad = np.zeros_like(xi)
        g_r = grad[:, 6:]
        dq = xi[:, 6:] - self.x_prev[take, 7:]
        g_r -= cfg.velocity_limit_weight * (self.dq_min[take] - dq > 0)
        g_r += cfg.velocity_limit_weight * (dq - self.dq_max[take] > 0)
        return grad

    def gradient(self, rows: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Gradient of the loss: 2 J^T r plus the hinge subgradient."""
        return 2.0 * self.normal_equations(rows, xi)[1] + self.hinge_gradient(rows, xi)


def _object_track(obj: ObjectMesh, seq: MotionSequence, subsample: int):
    """The subsampled object vertices in the object's frame, with the
    sequence's (T, 3, 3) object rotations and (T, 3) positions.

    Subsampling happens once in the object frame so the vertex subset is
    stable across frames.
    """
    idx = farthest_point_subsample(obj.vertices, subsample)
    return obj.vertices[idx], quat_to_mat(seq.obj_rot), seq.obj_pos


def _posed(local: np.ndarray, rotations: np.ndarray, positions: np.ndarray) -> np.ndarray:
    return local @ rotations.transpose(0, 2, 1) + positions[:, None]


def object_world_vertices(obj: ObjectMesh, seq: MotionSequence, subsample: int) -> np.ndarray:
    """(T, V_sub, 3) world-frame object vertices along the sequence's object track."""
    return _posed(*_object_track(obj, seq, subsample))


def build_frame_meshes(
    src_joints: np.ndarray,
    second_joints: np.ndarray | None,
    obj_world: np.ndarray,
    cfg: RetargetConfig,
    object_track: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    empty_reasons: dict[int, str] | None = None,
) -> list[InteractMesh | None]:
    """Interact mesh per frame (None where no interaction structure exists;
    empty_reasons, when given, receives why, keyed by frame). Each frame's
    mesh depends on that frame alone.

    object_track, (object-frame vertices, (T, 3, 3) rotations, (T, 3)
    positions) with obj_world their posed vertices, has every frame
    triangulated in the object's frame, from one DelaunaySeed of the object
    that is given every frame's joints, so it builds them in lockstep.
    """
    partners = [None] * len(src_joints) if second_joints is None else second_joints
    seed = None
    if object_track is not None:
        local, rotations, positions = object_track
        seed = DelaunaySeed(local, [
            object_frame_joints(src_joints[t], partners[t], obj_world[t], cfg.retention, rotations[t], positions[t])
            for t in range(len(src_joints))])
    meshes: list[InteractMesh | None] = []
    for t in range(len(src_joints)):
        frame = None if seed is None else (seed, rotations[t], positions[t])
        try:
            meshes.append(build_interact_mesh(src_joints[t], partners[t], obj_world[t], cfg.retention,
                                              object_frame=frame))
        except EmptyInteractMeshError as exc:
            meshes.append(None)
            if empty_reasons is not None:
                empty_reasons[t] = str(exc)
    return meshes


def source_meshes(
    source_seq: MotionSequence,
    source_skeleton: Skeleton,
    source_shape: ShapeParams,
    obj: ObjectMesh,
    cfg: RetargetConfig,
    second_seq: MotionSequence | None = None,
    empty_reasons: dict[int, str] | None = None,
) -> list[InteractMesh | None]:
    """The source scene's interact mesh per frame, as `build_frame_meshes`.

    Nothing of the target enters it, so one build serves every target the
    clip is retargeted onto. The second agent has the source's skeleton and
    shape.
    """
    if second_seq is not None and second_seq.frame_count != source_seq.frame_count:
        raise DataError("second-agent sequence is not time-aligned with the source")
    src_joints = fk_sequence(source_skeleton, source_shape, source_seq)
    second_joints = None if second_seq is None else fk_sequence(source_skeleton, source_shape, second_seq)
    track = _object_track(obj, source_seq, cfg.max_object_vertices)
    return build_frame_meshes(src_joints, second_joints, _posed(*track), cfg, object_track=track,
                              empty_reasons=empty_reasons)


def slide_gates(src_joints: np.ndarray, skeleton: Skeleton, dt: float, threshold: float) -> list[tuple[int, ...]]:
    """Per frame, the foot joints whose source horizontal speed is below threshold."""
    feet = sorted(skeleton.foot_joints)
    gates: list[tuple[int, ...]] = [()]
    for t in range(1, len(src_joints)):
        gated = []
        for f in feet:
            speed = np.linalg.norm(src_joints[t, f, :2] - src_joints[t - 1, f, :2]) / dt
            if speed < threshold:
                gated.append(f)
        gates.append(tuple(gated))
    return gates


def retarget_sequence(
    source_seq: MotionSequence,
    source_skeleton: Skeleton,
    source_shape: ShapeParams,
    target_skeleton: Skeleton | Sequence[Skeleton],
    target_shape: ShapeParams | Sequence[ShapeParams],
    obj: ObjectMesh,
    cfg: RetargetConfig | None = None,
    second_seq: MotionSequence | None = None,
) -> RetargetResult | list[RetargetResult | Exception]:
    """Retarget one agent's motion onto the target skeleton/shape, or onto
    each of several.

    The target skeleton's joints match the source's by index. Its joint
    limits, velocity limits and foot joints constrain the solve: the slide
    gates measure the source's foot speeds at the target's foot joints.
    The optional second agent, on the source's skeleton and shape, supplies
    fixed context joints to the interact mesh (its own retargeting is a
    separate call). Frames are optimized sequentially. Frame t > 0 is
    warm-started at, and its temporal term measured from, the prediction
    `predict_frame(x_{t-1}, s_{t-1}, s_t)`: the previous solution moved by the
    source's change s_t - s_{t-1}. Frame 0 starts from the source pose and
    serves as its own predecessor and prediction, which zeroes the temporal,
    velocity, and slide terms there. Deterministic for fixed inputs.

    Given sequences of target skeletons and shapes, it returns a list with
    one RetargetResult per target, or the exception that target raised, in
    order. Each target gets what a call with it alone returns, byte for
    byte, or the error such a call raises; one target's error leaves the
    others running. The targets must share the first one's joint tree and
    rest offsets, as the bridge skeletons over one source that the pipeline
    passes do; a target that does not gets a DataError. They are solved in
    lockstep: each frame is one FrameStack, one K_lap and one stacked
    kinematics pass per round of `optim.lockstep_levenberg_marquardt`, which
    the round's trial losses run and the next round's normal equations reuse;
    every member takes its solo iterations, and one target is a stack of one.
    The source's interact meshes (`source_meshes`) are built once per call,
    for all its targets.
    """
    cfg = cfg or RetargetConfig()
    several = not isinstance(target_skeleton, Skeleton)
    skeletons = list(target_skeleton) if several else [target_skeleton]
    shapes = list(target_shape) if several else [target_shape]
    if len(shapes) != len(skeletons):
        raise DataError(f"{len(skeletons)} target skeletons with {len(shapes)} target shapes")
    results: list[RetargetResult | Exception | None] = [None] * len(skeletons)
    tree = None  # the first fitting target's joint tree, which the others must share
    for k, skeleton in enumerate(skeletons):
        if skeleton.joint_count != source_skeleton.joint_count:
            results[k] = DataError(
                f"source has {source_skeleton.joint_count} joints, target has {skeleton.joint_count}"
            )
        elif tree is None:
            tree = skeleton
        elif not (np.array_equal(skeleton.parents, tree.parents)
                  and np.array_equal(skeleton.rest_offsets, tree.rest_offsets)):
            results[k] = DataError(
                f"target {k} has another joint tree or rest offsets than the first target; retarget it alone"
            )
    if not several and results[0] is not None:
        raise results[0]
    frames = source_seq.frame_count
    meshes = source_meshes(source_seq, source_skeleton, source_shape, obj, cfg, second_seq)

    src_joints = fk_sequence(source_skeleton, source_shape, source_seq)
    source = np.concatenate(
        [source_seq.root_pos, source_seq.root_rot, source_seq.joint_rots.reshape(frames, -1)], axis=1
    )
    members = [k for k, error in enumerate(results) if error is None]
    outcomes = _retarget_targets(source_seq, source, src_joints, [skeletons[k] for k in members],
                                 [shapes[k] for k in members], meshes, cfg)
    for k, outcome in zip(members, outcomes):
        results[k] = outcome

    empty = sum(1 for m in meshes if m is None)
    if empty / frames > 0.5:
        warnings.warn(
            f"interact mesh degenerate on {empty}/{frames} frames; "
            "laplacian term skipped there",
            stacklevel=2,
        )
    if several:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def _retarget_targets(
    source_seq: MotionSequence,
    source: np.ndarray,
    src_joints: np.ndarray,
    skeletons: list[Skeleton],
    shapes: list[ShapeParams],
    meshes: list[InteractMesh | None],
    cfg: RetargetConfig,
) -> list[RetargetResult | NumericalError]:
    """retarget_sequence's frame loop for targets of one joint tree and rest
    offsets: the frames in time order, each frame's targets in one solve. A
    target that raises leaves the later frames to the others."""
    frames, dt = source_seq.frame_count, source_seq.dt
    gates = [slide_gates(src_joints, skeleton, dt, cfg.foot_speed_threshold) for skeleton in skeletons]
    x0 = source[0].copy()
    x0[3:7] = quat_normalize(x0[3:7])
    solutions = np.empty((len(skeletons), frames, len(x0)))
    losses: list[list[FrameLoss]] = [[] for _ in skeletons]
    errors: list[NumericalError | None] = [None] * len(skeletons)
    for t in range(frames):
        active = [k for k, error in enumerate(errors) if error is None]
        if not active:
            break
        x_prev = np.repeat(x0[None], len(active), axis=0) if t == 0 else solutions[active, t - 1]
        x_pred = x_prev if t == 0 else np.array([predict_frame(x, source[t - 1], source[t]) for x in x_prev])
        xi0 = tangent_vector(x_pred)
        stack = FrameStack([skeletons[k] for k in active], [shapes[k] for k in active], x_prev, dt,
                           [gates[k][t] for k in active], meshes[t], cfg, x_pred)
        solve = (stack.normal_equations, stack.loss, stack.hinge_gradient)
        # one target goes through levenberg_marquardt, the hook of bench/'s tracer
        # (tests/test_bench_tracer.py), which takes the box by position
        if len(active) == 1:
            try:
                outcomes = [levenberg_marquardt(*solve, xi0[0], cfg.optimizer, tuple(b[0] for b in stack.bounds))]
            except NumericalError as exc:
                outcomes = [exc]
        else:
            outcomes = lockstep_levenberg_marquardt(*solve, xi0, cfg.optimizer, stack.bounds)
        solved = []
        for row, (k, outcome) in enumerate(zip(active, outcomes)):
            if isinstance(outcome, NumericalError):
                errors[k] = NumericalError(f"frame {t}: {outcome}")
                errors[k].__cause__ = outcome
            else:
                solved.append((row, k, outcome))
        if not solved:
            continue
        rows = np.array([row for row, _, _ in solved])
        members = [k for _, k, _ in solved]
        solutions[members, t], terms = stack.solution(rows, np.array([outcome.x for _, _, outcome in solved]))
        for i, (_, k, outcome) in enumerate(solved):
            values = {name: float(terms[name][i]) for name in TERM_NAMES}
            losses[k].append(
                FrameLoss(
                    frame=t,
                    total=sum(values.values()),
                    mesh_empty=meshes[t] is None,
                    iterations=outcome.iterations,
                    converged=outcome.converged,
                    **values,
                )
            )

    results: list[RetargetResult | NumericalError] = []
    for k, error in enumerate(errors):
        if error is not None:
            results.append(error)
            continue
        out_seq = MotionSequence(
            fps=source_seq.fps,
            root_pos=solutions[k, :, 0:3].copy(),
            root_rot=solutions[k, :, 3:7].copy(),
            joint_rots=solutions[k, :, 7:].reshape(frames, -1, 3).copy(),
            obj_pos=source_seq.obj_pos.copy(),
            obj_rot=source_seq.obj_rot.copy(),
            contacts=None if source_seq.contacts is None else source_seq.contacts.copy(),
        )
        results.append(RetargetResult(
            sequence=out_seq,
            per_frame_losses=tuple(losses[k]),
            iterations=sum(f.iterations for f in losses[k]),
            converged=all(f.converged for f in losses[k]),
        ))
    return results


def mean_sequence_residual(
    meshes: list[InteractMesh | None],
    skeleton: Skeleton,
    shape: ShapeParams,
    seq: MotionSequence,
) -> float:
    """Mean per-tetrahedron Frobenius Laplacian residual of a sequence."""
    joints = fk_sequence(skeleton, shape, seq)
    values: list[np.ndarray] = []
    for t, mesh in enumerate(meshes):
        if mesh is None:
            continue
        values.append(laplacian_residuals(mesh, joints[t]))
    if not values:
        raise DataError("no retained tetrahedra in any frame")
    return float(np.concatenate(values).mean())
