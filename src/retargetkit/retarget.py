"""Per-frame retargeting objective and the sequential sequence optimizer.

Each frame minimizes the interaction-preserving deformation energy of Ho,
Komura & Tai ("Spatial Relationship Preserving Character Motion Adaptation",
SIGGRAPH 2010) on the frame's interact mesh, plus regularizers:

  laplacian   sum_tet || L(source tet) - L(target tet(q)) ||_F^2
  temporal    || x - x_pred ||^2 over the full stored parameter vector
  jlimit      sum max(0, q_min - q) + max(0, q - q_max)     (per joint axis)
  vlimit      sum max(0, v_min*dt - dq) + max(0, dq - v_max*dt), dq = q - q_prev
  slide       sum_f || p_f(x) - p_f(x_prev) ||^2 over feet whose *source*
              horizontal speed is below the threshold (z up)

x_prev is the previous frame's solution and x_pred its prediction from the
source's own motion (`predict_frame`): x_prev moved by the source's change
from the previous frame, so the temporal term tracks the source's velocity
rather than holding the pose still (velocity-level tracking, Choi & Ko,
"Online Motion Retargetting", JVCA 2000). With target = source every term is
zero at the source pose, so identity retargeting reproduces the source.

`FrameModel` is the one implementation of this objective. Its terms are
functions of the stored parameters, but Gauss-Newton steps in kinematics'
tangent layout, (root_pos, delta, joint exp-maps) with root rotation
q_a * exp(delta) around the prediction's quaternion q_a: no step can scale
the quaternion, so the solve does not depend on the scene's heading, and the
stored quaternion is normalized once, when a frame's result is written. For
a vector the model runs one kinematics pass, kept until it is asked about
another vector, and derives from it the weighted terms (the loss), the
gradient, or the Gauss-Newton normal equations of the least-squares terms
(with the FK Jacobian); Gauss-Newton asks for the normal equations only at
the point whose loss it has just evaluated, so each point costs one pass. A
tetrahedron's Laplacian is A P with A = 4I - 11^T acting on its four points,
so the Laplacian difference is linear in the offsets dP of the agent's
joints from their source coordinates in the mesh. With the joint-by-joint
stiffness K_lap, which sums A^T A = 16I - 4*11^T over each tetrahedron's
agent-A slots, the term is w * sum dP . (K_lap dP), its part of J^T r is
w * K_lap dP, and its block of J^T J is w * fk_jac^T (K_lap ⊗ I3) fk_jac;
the slide term adds its weight on the gated feet's diagonal. K_lap is built
once per frame mesh.

Hinge terms use subgradient 0 at the kink. Frames are optimized in time
order, each warm-started at its prediction x_pred; joint limits are enforced
by projection (clamping) inside the descent loop, so outputs satisfy them to
round-off rather than only up to the soft penalty.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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
)
from .kinematics import (
    Pose,
    fk_jacobian_vector,
    fk_sequence,
    fk_vector,
    pose_to_vector,
    stored_vector,
    tangent_vector,
    vector_kinematics,
)
from .motionio import MotionSequence, ObjectMesh, ShapeParams, Skeleton
from .optim import OptimizerConfig, levenberg_marquardt
from .rotations import quat_left_matrix, quat_mul, quat_normalize, quat_to_mat, rodrigues

TERM_NAMES = ("laplacian", "temporal", "jlimit", "vlimit", "slide")


@dataclass(frozen=True)
class RetargetConfig:
    laplacian_weight: float = setting(1.0, ge=0)
    temporal_weight: float = setting(1.0, ge=0)
    joint_limit_weight: float = setting(1.0, ge=0)
    velocity_limit_weight: float = setting(1.0, ge=0)
    foot_slide_weight: float = setting(1.0, ge=0)
    foot_speed_threshold: float = setting(0.01, gt=0)  # m/s, evaluated on the source feet
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    retention: RetentionRule = field(default_factory=RetentionRule)
    max_object_vertices: int = setting(64, ge=1)

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class FrameContext:
    """Per-frame source-side context the objective needs besides the mesh."""

    dt: float
    slide_feet: tuple[int, ...] = ()  # foot joints gated by source horizontal speed


@dataclass(frozen=True)
class FrameLoss:
    frame: int
    total: float
    laplacian: float
    temporal: float
    jlimit: float
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


class FrameModel:
    """One frame's weighted objective around the previous frame's solution
    x_prev and the prediction x_pred.

    The first frame passes its own start as both. The temporal term measures
    from x_pred; the velocity hinges and the slide anchor measure from x_prev.
    The mesh, when it has tetrahedra, supplies the Laplacian term; the
    context's slide feet are held to their positions under x_prev. `terms`
    takes stored parameters; the other evaluations take tangent vectors at
    the anchor quaternion (by default x_pred's), see kinematics.stored_vector.
    """

    def __init__(
        self,
        skeleton: Skeleton,
        shape: ShapeParams,
        x_prev: np.ndarray,
        ctx: FrameContext,
        mesh: InteractMesh | None,
        cfg: RetargetConfig,
        x_pred: np.ndarray | None = None,
        anchor: np.ndarray | None = None,
    ):
        self.skeleton, self.shape, self.x_prev, self.ctx, self.cfg = skeleton, shape, x_prev, ctx, cfg
        self.x_pred = x_prev if x_pred is None else x_pred
        self.anchor = self.x_pred[3:7] if anchor is None else anchor
        self.mesh = mesh if mesh is not None and mesh.tet_count else None
        self.feet = np.asarray(ctx.slide_feet, dtype=int)
        self.feet_ref = fk_vector(skeleton, shape, x_prev)[self.feet] if self.feet.size else None
        j = skeleton.joint_count
        # joint_lap[j, (m, s)] = d L[m, s] / d p_j: the operator A = 4I - 11^T
        # restricted to agent-A slots. The Laplacian difference is linear in
        # the joints' offsets dP from their source coordinates in the mesh,
        # diff = joint_lap^T dP, so the term is dP . (K_lap dP) and J^T r
        # pulls the joints by K_lap dP, with the Laplacian stiffness
        # K_lap = joint_lap @ joint_lap^T (A^T A = 16I - 4*11^T per
        # tetrahedron); the slide term adds its weight on the gated feet's
        # diagonal
        self.source = np.zeros((j, 3))
        self.lap_stiffness = np.zeros((j, j))
        if self.mesh is not None:
            rows, joints = _agent_rows(self.mesh)
            self.source[joints] = self.mesh.points.coordinates[rows]
            slot_joint = np.full(len(self.mesh.points.coordinates), -1)
            slot_joint[rows] = joints
            tet_joints = slot_joint[self.mesh.tetrahedra]
            tet, slot = np.nonzero(tet_joints >= 0)
            owner = np.zeros((j, self.mesh.tet_count, 4))
            owner[tet_joints[tet, slot], tet, slot] = 1.0
            joint_lap = (4.0 * owner - owner.sum(axis=2, keepdims=True)).reshape(j, -1)
            self.lap_stiffness = joint_lap @ joint_lap.T
        self.stiffness = cfg.laplacian_weight * self.lap_stiffness
        np.add.at(self.stiffness, (self.feet, self.feet), cfg.foot_slide_weight)
        self._pass_key, self._pass = None, None

    def _pass_at(self, x: np.ndarray):
        """The kinematics pass at the stored vector x, kept for the next call
        at the same bytes."""
        key = np.asarray(x, dtype=float).tobytes()
        if key != self._pass_key:
            self._pass_key, self._pass = key, vector_kinematics(self.skeleton, self.shape, x)
            for array in self._pass[1:]:
                array.flags.writeable = False  # served again to later calls
        return self._pass

    def _laplacian_pull(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The joint offsets dP from the mesh's source coordinates and the
        unweighted pull K_lap dP."""
        offsets = positions - self.source
        return offsets, self.lap_stiffness @ offsets

    def terms(self, x: np.ndarray) -> dict[str, float]:
        """Per-term weighted objective at x."""
        cfg, skeleton = self.cfg, self.skeleton
        terms = dict.fromkeys(TERM_NAMES, 0.0)
        positions = self._pass_at(x)[2][0] if self.mesh is not None or self.feet.size else None
        if self.mesh is not None:
            offsets, pull = self._laplacian_pull(positions)
            terms["laplacian"] = cfg.laplacian_weight * float(np.einsum("ij,ij->", offsets, pull))
        d = x - self.x_pred
        terms["temporal"] = cfg.temporal_weight * float(d @ d)

        r = x[7:].reshape(-1, 3)
        low = np.maximum(0.0, skeleton.q_min[1:] - r)
        high = np.maximum(0.0, r - skeleton.q_max[1:])
        terms["jlimit"] = cfg.joint_limit_weight * float(low.sum() + high.sum())

        dq = r - self.x_prev[7:].reshape(-1, 3)
        vlow = np.maximum(0.0, skeleton.v_min[1:, None] * self.ctx.dt - dq)
        vhigh = np.maximum(0.0, dq - skeleton.v_max[1:, None] * self.ctx.dt)
        terms["vlimit"] = cfg.velocity_limit_weight * float(vlow.sum() + vhigh.sum())

        if self.feet.size:
            slide = positions[self.feet] - self.feet_ref
            terms["slide"] = cfg.foot_slide_weight * float(np.einsum("ij,ij->", slide, slide))
        return terms

    def loss(self, xi: np.ndarray) -> float:
        return sum(self.terms(stored_vector(xi, self.anchor)).values())

    def normal_equations(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J^T J, J^T r) over the tangent vector xi of the least-squares
        terms (laplacian, temporal, slide), whose sum is ||r||^2; the hinge
        terms are not least-squares."""
        cfg = self.cfg
        x = stored_vector(xi, self.anchor)
        # d(q_a * exp(delta))/d(delta) = 1/2 L(q)[:, 1:] J_r(delta) at
        # q = q_a * exp(delta); the FK Jacobian's root-rotation columns, over
        # the right perturbation at q, take the same J_r(delta)
        right_jac = rodrigues(xi[3:6])[1].T
        quat_jac = 0.5 * quat_left_matrix(x[3:7])[:, 1:] @ right_jac
        d = x - self.x_pred
        jtj = cfg.temporal_weight * np.eye(len(xi))
        jtj[3:6, 3:6] = cfg.temporal_weight * (quat_jac.T @ quat_jac)
        jtr = cfg.temporal_weight * np.concatenate([d[:3], quat_jac.T @ d[3:7], d[7:]])
        if self.mesh is None and not self.feet.size:
            return jtj, jtr
        # fk_jac (3J, 3J + 3), from the pass the loss made at x
        positions, fk_jac = fk_jacobian_vector(self.skeleton, self.shape, x, self._pass_at(x))
        fk_jac[:, 3:6] = fk_jac[:, 3:6] @ right_jac
        pull = np.zeros_like(positions)  # J^T r over joint positions
        if self.mesh is not None:
            pull += cfg.laplacian_weight * self._laplacian_pull(positions)[1]
        if self.feet.size:
            np.add.at(pull, self.feet, cfg.foot_slide_weight * (positions[self.feet] - self.feet_ref))
        stiff_jac = (self.stiffness @ fk_jac.reshape(len(positions), -1)).reshape(fk_jac.shape)
        return jtj + fk_jac.T @ stiff_jac, jtr + pull.ravel() @ fk_jac

    def hinge_gradient(self, xi: np.ndarray) -> np.ndarray:
        """Subgradient of the joint- and velocity-limit hinges (0 at the kink)."""
        cfg, skeleton = self.cfg, self.skeleton
        grad = np.zeros_like(xi)
        r = xi[6:].reshape(-1, 3)
        g_r = np.zeros_like(r)
        g_r -= cfg.joint_limit_weight * (skeleton.q_min[1:] - r > 0)
        g_r += cfg.joint_limit_weight * (r - skeleton.q_max[1:] > 0)
        dq = r - self.x_prev[7:].reshape(-1, 3)
        g_r -= cfg.velocity_limit_weight * (skeleton.v_min[1:, None] * self.ctx.dt - dq > 0)
        g_r += cfg.velocity_limit_weight * (dq - skeleton.v_max[1:, None] * self.ctx.dt > 0)
        grad[6:] = g_r.ravel()
        return grad

    def gradient(self, xi: np.ndarray) -> np.ndarray:
        """Gradient of loss: 2 J^T r plus the hinge subgradient."""
        return 2.0 * self.normal_equations(xi)[1] + self.hinge_gradient(xi)


def _terms_core(x, x_prev, ctx, skeleton, shape, mesh, cfg) -> dict[str, float]:
    return FrameModel(skeleton, shape, x_prev, ctx, mesh, cfg).terms(x)


def _gradient_core(x, x_prev, ctx, skeleton, shape, mesh, cfg) -> np.ndarray:
    """Gradient over the tangent layout at the stored parameters x."""
    return FrameModel(skeleton, shape, x_prev, ctx, mesh, cfg, anchor=x[3:7]).gradient(tangent_vector(x))


def eval_objective(
    pose: Pose,
    prev_pose: Pose,
    ctx: FrameContext,
    skeleton: Skeleton,
    shape: ShapeParams,
    mesh: InteractMesh | None,
    cfg: RetargetConfig | None = None,
) -> tuple[float, dict[str, float]]:
    """Weighted objective total and per-term (already weighted) breakdown.

    An absent/empty mesh zeroes the laplacian term; the caller carries the
    per-frame flag. The first frame passes itself as prev_pose. prev_pose
    also serves as the prediction the temporal term measures from, as at
    retarget_sequence's frame 0; FrameModel takes a separate prediction.
    """
    terms = _terms_core(
        pose_to_vector(pose), pose_to_vector(prev_pose), ctx, skeleton, shape, mesh,
        cfg or RetargetConfig(),
    )
    return sum(terms.values()), terms


def objective_gradient(
    pose: Pose,
    prev_pose: Pose,
    ctx: FrameContext,
    skeleton: Skeleton,
    shape: ShapeParams,
    mesh: InteractMesh | None,
    cfg: RetargetConfig | None = None,
) -> np.ndarray:
    """Gradient of the weighted objective over the tangent layout at pose:
    root_pos, the root's right-perturbation rotation vector, joint exp-maps."""
    return _gradient_core(
        pose_to_vector(pose), pose_to_vector(prev_pose), ctx, skeleton, shape, mesh,
        cfg or RetargetConfig(),
    )


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
    empty_reasons, when given, receives why, keyed by frame).

    Each frame's mesh is offered to the next as its topology hint, which the
    tetrahedralizer keeps only when it is certified for the new coordinates.
    object_track, (object-frame vertices, (T, 3, 3) rotations, (T, 3)
    positions) with obj_world their posed vertices, has every frame
    triangulated in the object's frame, from one DelaunaySeed of the object.
    """
    seed = None
    if object_track is not None:
        local, rotations, positions = object_track
        seed = DelaunaySeed(local)
    meshes: list[InteractMesh | None] = []
    mesh: InteractMesh | None = None
    for t in range(len(src_joints)):
        second = second_joints[t] if second_joints is not None else None
        frame = None if seed is None else (seed, rotations[t], positions[t])
        try:
            mesh = build_interact_mesh(src_joints[t], second, obj_world[t], cfg.retention,
                                       previous=mesh, object_frame=frame)
        except EmptyInteractMeshError as exc:
            mesh = None
            if empty_reasons is not None:
                empty_reasons[t] = str(exc)
        meshes.append(mesh)
    return meshes


def source_meshes(
    source_seq: MotionSequence,
    source_skeleton: Skeleton,
    source_shape: ShapeParams,
    obj: ObjectMesh,
    cfg: RetargetConfig,
    second_seq: MotionSequence | None = None,
    second_skeleton: Skeleton | None = None,
    second_shape: ShapeParams | None = None,
    empty_reasons: dict[int, str] | None = None,
) -> list[InteractMesh | None]:
    """The source scene's interact mesh per frame, as `build_frame_meshes`.

    Nothing of the target enters it, so one build serves every target the
    clip is retargeted onto. The second agent defaults to the source's
    skeleton and shape.
    """
    if second_seq is not None and second_seq.frame_count != source_seq.frame_count:
        raise DataError("second-agent sequence is not time-aligned with the source")
    src_joints = fk_sequence(source_skeleton, source_shape, source_seq)
    second_joints = None
    if second_seq is not None:
        second_joints = fk_sequence(
            second_skeleton or source_skeleton, second_shape or source_shape, second_seq
        )
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
    target_skeleton: Skeleton,
    target_shape: ShapeParams,
    obj: ObjectMesh,
    cfg: RetargetConfig | None = None,
    second_seq: MotionSequence | None = None,
    second_skeleton: Skeleton | None = None,
    second_shape: ShapeParams | None = None,
    meshes: list[InteractMesh | None] | None = None,
) -> RetargetResult:
    """Retarget one agent's motion onto the target skeleton/shape.

    The optional second agent supplies fixed context joints to the interact
    mesh (its own retargeting is a separate call). Frames are optimized
    sequentially. Frame t > 0 is warm-started at, and its temporal term
    measured from, the prediction `predict_frame(x_{t-1}, s_{t-1}, s_t)`: the
    previous solution moved by the source's change s_t - s_{t-1}. Frame 0
    starts from the source pose and serves as its own predecessor and
    prediction, which zeroes the temporal, velocity, and slide terms there.
    Deterministic for fixed inputs.

    `meshes`, when given, are the source's `source_meshes` for this `cfg`,
    one per frame; they stand in for building the meshes from `obj` and the
    second agent, so one build can serve every target of a clip.
    """
    cfg = cfg or RetargetConfig()
    if source_skeleton.joint_count != target_skeleton.joint_count:
        raise DataError(
            f"source has {source_skeleton.joint_count} joints, "
            f"target has {target_skeleton.joint_count}"
        )
    frames = source_seq.frame_count
    if meshes is None:
        meshes = source_meshes(source_seq, source_skeleton, source_shape, obj, cfg,
                               second_seq, second_skeleton, second_shape)
    elif len(meshes) != frames:
        raise DataError(f"{len(meshes)} prebuilt interact meshes for {frames} source frames")

    dt = source_seq.dt
    src_joints = fk_sequence(source_skeleton, source_shape, source_seq)
    gates = slide_gates(src_joints, source_skeleton, dt, cfg.foot_speed_threshold)

    qmin = target_skeleton.q_min[1:].ravel()
    qmax = target_skeleton.q_max[1:].ravel()

    def project(xi: np.ndarray) -> np.ndarray:
        return np.concatenate([xi[:6], np.clip(xi[6:], qmin, qmax)])

    source = np.concatenate(
        [source_seq.root_pos, source_seq.root_rot, source_seq.joint_rots.reshape(frames, -1)], axis=1
    )
    x0 = source[0].copy()
    x0[3:7] = quat_normalize(x0[3:7])
    solutions = np.empty((frames, len(x0)))
    losses: list[FrameLoss] = []
    total_iterations = 0
    for t in range(frames):
        x_prev = x0 if t == 0 else solutions[t - 1]
        x_pred = x0 if t == 0 else predict_frame(x_prev, source[t - 1], source[t])
        model = FrameModel(
            target_skeleton, target_shape, x_prev, FrameContext(dt=dt, slide_feet=gates[t]), meshes[t], cfg,
            x_pred,
        )
        try:
            result = levenberg_marquardt(
                model.normal_equations, model.loss, model.hinge_gradient, tangent_vector(x_pred),
                cfg.optimizer, project=project,
            )
        except NumericalError as exc:
            raise NumericalError(f"frame {t}: {exc}") from exc
        solutions[t] = stored_vector(result.x, x_pred[3:7])
        solutions[t, 3:7] = quat_normalize(solutions[t, 3:7])
        terms = model.terms(solutions[t])
        losses.append(
            FrameLoss(
                frame=t,
                total=sum(terms.values()),
                mesh_empty=meshes[t] is None,
                iterations=result.iterations,
                converged=result.converged,
                **{k: terms[k] for k in TERM_NAMES},
            )
        )
        total_iterations += result.iterations

    empty = sum(1 for m in meshes if m is None)
    if frames and empty / frames > 0.5:
        warnings.warn(
            f"interact mesh degenerate on {empty}/{frames} frames; "
            "laplacian term skipped there",
            stacklevel=2,
        )

    out_seq = MotionSequence(
        fps=source_seq.fps,
        root_pos=solutions[:, 0:3].copy(),
        root_rot=solutions[:, 3:7].copy(),
        joint_rots=solutions[:, 7:].reshape(frames, -1, 3).copy(),
        obj_pos=source_seq.obj_pos.copy(),
        obj_rot=source_seq.obj_rot.copy(),
        contacts=None if source_seq.contacts is None else source_seq.contacts.copy(),
    )
    return RetargetResult(
        sequence=out_seq,
        per_frame_losses=tuple(losses),
        iterations=total_iterations,
        converged=all(l.converged for l in losses),
    )


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
