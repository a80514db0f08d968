"""Per-frame retargeting objective and the sequential sequence optimizer.

The weighted objective per frame combines:

  laplacian   sum_tet || L(source tet) - L(target tet(q)) ||_F^2
  temporal    || x - x_prev ||^2 over the full parameter vector
  jlimit      sum max(0, q_min - q) + max(0, q - q_max)     (per joint axis)
  vlimit      sum max(0, v_min*dt - dq) + max(0, dq - v_max*dt), dq = q - q_prev
  slide       sum_f || p_f(x) - p_f(x_prev) ||^2 over feet whose *source*
              horizontal speed is below the threshold (z up)

Hinge terms use subgradient 0 at the kink. Frames are optimized in time
order, warm-started from the previous frame's solution; joint limits are
enforced by projection (clamping) inside the descent loop, so outputs satisfy
them to round-off rather than only up to the soft penalty.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptyInteractMeshError, NumericalError
from .interactmesh import (
    AGENT_A,
    AGENT_B,
    InteractMesh,
    PointCloud,
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
    motion_frame_pose,
    pose_to_vector,
)
from .motionio import MotionSequence, ObjectMesh, ShapeParams, Skeleton
from .optim import OptimizerConfig, adam_minimize, levenberg_marquardt
from .rotations import quat_to_mat

TERM_NAMES = ("laplacian", "temporal", "jlimit", "vlimit", "slide")


@dataclass(frozen=True)
class RetargetConfig:
    laplacian_weight: float = 1.0
    temporal_weight: float = 1.0
    joint_limit_weight: float = 1.0
    velocity_limit_weight: float = 1.0
    foot_slide_weight: float = 1.0
    foot_speed_threshold: float = 0.01  # m/s, evaluated on the source feet
    # damped Gauss-Newton exploits the least-squares structure of the frame
    # subproblem and converges in a few steps where coordinate-wise descent
    # dithers; "adam" remains available through the method field
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(
            method="gauss_newton", max_iterations=100, improvement_tol=1e-12, patience=6
        )
    )
    retention: RetentionRule = field(default_factory=RetentionRule)
    max_object_vertices: int = 64
    mesh_rebuild: str = "per-frame"  # "per-frame" | "first-frame"

    def __post_init__(self):
        weights = (
            self.laplacian_weight,
            self.temporal_weight,
            self.joint_limit_weight,
            self.velocity_limit_weight,
            self.foot_slide_weight,
        )
        if any(w < 0 for w in weights):
            raise DataError("term weights must be nonnegative")
        if self.foot_speed_threshold <= 0:
            raise DataError("foot speed threshold must be positive")
        if self.mesh_rebuild not in ("per-frame", "first-frame"):
            raise DataError(f"unknown mesh_rebuild mode {self.mesh_rebuild!r}")


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


def _terms_core(
    x: np.ndarray,
    x_prev: np.ndarray,
    ctx: FrameContext,
    skeleton: Skeleton,
    shape: ShapeParams,
    mesh: InteractMesh | None,
    cfg: RetargetConfig,
    prev_positions: np.ndarray | None = None,
) -> dict[str, float]:
    j = skeleton.joint_count
    terms = dict.fromkeys(TERM_NAMES, 0.0)

    need_fk = (mesh is not None and mesh.tet_count) or ctx.slide_feet
    positions = fk_vector(skeleton, shape, x) if need_fk else None
    if mesh is not None and mesh.tet_count:
        coords = target_point_cloud(mesh, positions)
        diff = laplacians(coords[mesh.tetrahedra]) - mesh.reference_laplacians
        terms["laplacian"] = cfg.laplacian_weight * float(np.einsum("mij,mij->", diff, diff))

    d = x - x_prev
    terms["temporal"] = cfg.temporal_weight * float(d @ d)

    r = x[7:].reshape(j - 1, 3)
    low = np.maximum(0.0, skeleton.q_min[1:] - r)
    high = np.maximum(0.0, r - skeleton.q_max[1:])
    terms["jlimit"] = cfg.joint_limit_weight * float(low.sum() + high.sum())

    dq = r - x_prev[7:].reshape(j - 1, 3)
    vlow = np.maximum(0.0, skeleton.v_min[1:, None] * ctx.dt - dq)
    vhigh = np.maximum(0.0, dq - skeleton.v_max[1:, None] * ctx.dt)
    terms["vlimit"] = cfg.velocity_limit_weight * float(vlow.sum() + vhigh.sum())

    if ctx.slide_feet:
        feet = np.asarray(ctx.slide_feet, dtype=int)
        if prev_positions is None:
            prev_positions = fk_vector(skeleton, shape, x_prev)
        slide = positions[feet] - prev_positions[feet]
        terms["slide"] = cfg.foot_slide_weight * float(np.einsum("ij,ij->", slide, slide))
    return terms


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
    per-frame flag. The first frame passes itself as prev_pose.
    """
    cfg = cfg or RetargetConfig()
    terms = _terms_core(
        pose_to_vector(pose), pose_to_vector(prev_pose), ctx, skeleton, shape, mesh, cfg
    )
    return sum(terms.values()), terms


def _hinge_gradient(
    x: np.ndarray, x_prev: np.ndarray, ctx: FrameContext, skeleton: Skeleton, cfg: RetargetConfig
) -> np.ndarray:
    j = skeleton.joint_count
    grad = np.zeros_like(x)
    r = x[7:].reshape(j - 1, 3)
    g_r = np.zeros_like(r)
    g_r -= cfg.joint_limit_weight * (skeleton.q_min[1:] - r > 0)
    g_r += cfg.joint_limit_weight * (r - skeleton.q_max[1:] > 0)
    dq = r - x_prev[7:].reshape(j - 1, 3)
    g_r -= cfg.velocity_limit_weight * (skeleton.v_min[1:, None] * ctx.dt - dq > 0)
    g_r += cfg.velocity_limit_weight * (dq - skeleton.v_max[1:, None] * ctx.dt > 0)
    grad[7:] = g_r.ravel()
    return grad


def _gradient_core(
    x: np.ndarray,
    x_prev: np.ndarray,
    ctx: FrameContext,
    skeleton: Skeleton,
    shape: ShapeParams,
    mesh: InteractMesh | None,
    cfg: RetargetConfig,
    prev_positions: np.ndarray | None = None,
) -> np.ndarray:
    j = skeleton.joint_count
    grad = np.zeros_like(x)

    need_fk = (mesh is not None and mesh.tet_count) or ctx.slide_feet
    if need_fk:
        positions = fk_vector(skeleton, shape, x)
        jac = fk_jacobian_vector(skeleton, shape, x)  # (3J, P)
        g_pos = np.zeros((j, 3))
        if mesh is not None and mesh.tet_count:
            coords = target_point_cloud(mesh, positions)
            diff = laplacians(coords[mesh.tetrahedra]) - mesh.reference_laplacians  # (M,4,3)
            # dF/dp_slot = 8*diff_slot - 2*sum_slots diff
            g_slots = 8.0 * diff - 2.0 * diff.sum(axis=1, keepdims=True)
            g_points = np.zeros((len(mesh.points.coordinates), 3))
            np.add.at(g_points, mesh.tetrahedra.ravel(), g_slots.reshape(-1, 3))
            rows, joints = _agent_rows(mesh)
            np.add.at(g_pos, joints, cfg.laplacian_weight * g_points[rows])
        if ctx.slide_feet:
            feet = np.asarray(ctx.slide_feet, dtype=int)
            if prev_positions is None:
                prev_positions = fk_vector(skeleton, shape, x_prev)
            g_pos[feet] += cfg.foot_slide_weight * 2.0 * (positions[feet] - prev_positions[feet])
        grad += g_pos.ravel() @ jac

    grad += cfg.temporal_weight * 2.0 * (x - x_prev)
    grad += _hinge_gradient(x, x_prev, ctx, skeleton, cfg)
    return grad


def _residuals_and_jacobian(
    x: np.ndarray,
    x_prev: np.ndarray,
    ctx: FrameContext,
    skeleton: Skeleton,
    shape: ShapeParams,
    mesh: InteractMesh | None,
    cfg: RetargetConfig,
    prev_positions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked least-squares residuals (laplacian, temporal, slide) and their
    Jacobian; hinge terms are not least-squares and are handled separately."""
    j = skeleton.joint_count
    n_params = len(x)
    res_blocks: list[np.ndarray] = []
    jac_blocks: list[np.ndarray] = []

    need_fk = (mesh is not None and mesh.tet_count) or ctx.slide_feet
    if need_fk:
        positions = fk_vector(skeleton, shape, x)
        fk_jac = fk_jacobian_vector(skeleton, shape, x).reshape(j, 3, n_params)
    if mesh is not None and mesh.tet_count:
        w = np.sqrt(cfg.laplacian_weight)
        coords = target_point_cloud(mesh, positions)
        diff = laplacians(coords[mesh.tetrahedra]) - mesh.reference_laplacians
        res_blocks.append(w * diff.ravel())
        point_jac = np.zeros((len(mesh.points.coordinates), 3, n_params))
        rows, joints = _agent_rows(mesh)
        point_jac[rows] = fk_jac[joints]
        tet_jac = point_jac[mesh.tetrahedra]  # (M, 4, 3, P)
        lap_jac = 4.0 * tet_jac - tet_jac.sum(axis=1, keepdims=True)
        jac_blocks.append(w * lap_jac.reshape(-1, n_params))

    w = np.sqrt(cfg.temporal_weight)
    res_blocks.append(w * (x - x_prev))
    jac_blocks.append(w * np.eye(n_params))

    if ctx.slide_feet:
        feet = np.asarray(ctx.slide_feet, dtype=int)
        if prev_positions is None:
            prev_positions = fk_vector(skeleton, shape, x_prev)
        w = np.sqrt(cfg.foot_slide_weight)
        res_blocks.append(w * (positions[feet] - prev_positions[feet]).ravel())
        jac_blocks.append(w * fk_jac[feet].reshape(-1, n_params))

    return np.concatenate(res_blocks), np.vstack(jac_blocks)


def objective_gradient(
    pose: Pose,
    prev_pose: Pose,
    ctx: FrameContext,
    skeleton: Skeleton,
    shape: ShapeParams,
    mesh: InteractMesh | None,
    cfg: RetargetConfig | None = None,
) -> np.ndarray:
    """Gradient of the weighted objective over the pose parameter vector."""
    cfg = cfg or RetargetConfig()
    return _gradient_core(
        pose_to_vector(pose), pose_to_vector(prev_pose), ctx, skeleton, shape, mesh, cfg
    )


def object_world_vertices(obj: ObjectMesh, seq: MotionSequence, subsample: int) -> np.ndarray:
    """(T, V_sub, 3) world-frame object vertices along the sequence's object track.

    Subsampling happens once in the object frame so the vertex subset is
    stable across frames.
    """
    idx = farthest_point_subsample(obj.vertices, subsample)
    local = obj.vertices[idx]
    out = np.empty((seq.frame_count, len(local), 3))
    for t in range(seq.frame_count):
        out[t] = local @ quat_to_mat(seq.obj_rot[t]).T + seq.obj_pos[t]
    return out


def _mesh_with_frame_coordinates(
    template: InteractMesh,
    joints_a: np.ndarray,
    joints_b: np.ndarray | None,
    obj_world: np.ndarray,
) -> InteractMesh:
    """Reuse a mesh's topology with this frame's source coordinates."""
    coords = template.points.coordinates.copy()
    for row, (kind, idx) in enumerate(template.points.provenance):
        if kind == AGENT_A:
            coords[row] = joints_a[idx]
        elif kind == AGENT_B:
            coords[row] = joints_b[idx]
        else:
            coords[row] = obj_world[idx]
    return InteractMesh(
        points=PointCloud(coordinates=coords, provenance=template.points.provenance),
        tetrahedra=template.tetrahedra,
        reference_laplacians=laplacians(coords[template.tetrahedra]),
    )


def build_frame_meshes(
    src_joints: np.ndarray,
    second_joints: np.ndarray | None,
    obj_world: np.ndarray,
    cfg: RetargetConfig,
) -> list[InteractMesh | None]:
    """Interact mesh per frame (None where no interaction structure exists).

    Each frame's mesh is offered to the next as its topology hint, which the
    tetrahedralizer keeps only when it is certified for the new coordinates.
    """
    frames = len(src_joints)
    meshes: list[InteractMesh | None] = []
    template: InteractMesh | None = None
    mesh: InteractMesh | None = None
    for t in range(frames):
        second = second_joints[t] if second_joints is not None else None
        if cfg.mesh_rebuild == "first-frame" and template is not None:
            meshes.append(_mesh_with_frame_coordinates(template, src_joints[t], second, obj_world[t]))
            continue
        try:
            mesh = build_interact_mesh(src_joints[t], second, obj_world[t], cfg.retention, previous=mesh)
        except EmptyInteractMeshError:
            mesh = None
        if cfg.mesh_rebuild == "first-frame" and mesh is not None:
            template = mesh
        meshes.append(mesh)
    return meshes


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
) -> RetargetResult:
    """Retarget one agent's motion onto the target skeleton/shape.

    The optional second agent supplies fixed context joints to the interact
    mesh (its own retargeting is a separate call). Frames are optimized
    sequentially, each warm-started from the previous solution; frame 0 starts
    from the source pose and serves as its own predecessor, which zeroes the
    temporal, velocity, and slide terms there. Deterministic for fixed inputs.
    """
    cfg = cfg or RetargetConfig()
    if source_skeleton.joint_count != target_skeleton.joint_count:
        raise DataError(
            f"source has {source_skeleton.joint_count} joints, "
            f"target has {target_skeleton.joint_count}"
        )
    if second_seq is not None and second_seq.frame_count != source_seq.frame_count:
        raise DataError("second-agent sequence is not time-aligned with the source")

    frames = source_seq.frame_count
    dt = source_seq.dt
    src_joints = fk_sequence(source_skeleton, source_shape, source_seq)
    second_joints = None
    if second_seq is not None:
        second_joints = fk_sequence(
            second_skeleton or source_skeleton, second_shape or source_shape, second_seq
        )
    obj_world = object_world_vertices(obj, source_seq, cfg.max_object_vertices)
    meshes = build_frame_meshes(src_joints, second_joints, obj_world, cfg)
    gates = slide_gates(src_joints, source_skeleton, dt, cfg.foot_speed_threshold)

    qmin = target_skeleton.q_min[1:].ravel()
    qmax = target_skeleton.q_max[1:].ravel()

    def project(x: np.ndarray) -> np.ndarray:
        out = x.copy()
        norm = np.linalg.norm(out[3:7])
        if norm == 0.0:
            raise NumericalError("root quaternion collapsed to zero")
        out[3:7] /= norm
        out[7:] = np.clip(out[7:], qmin, qmax)
        return out

    solutions = np.empty((frames, len(pose_to_vector(motion_frame_pose(source_seq, 0)))))
    losses: list[FrameLoss] = []
    prev_x: np.ndarray | None = None
    total_iterations = 0
    for t in range(frames):
        x_init = pose_to_vector(motion_frame_pose(source_seq, 0)) if t == 0 else solutions[t - 1]
        x_ref = x_init if t == 0 else solutions[t - 1]
        ctx = FrameContext(dt=dt, slide_feet=gates[t])
        mesh = meshes[t]
        prev_positions = None if prev_x is None else fk_vector(target_skeleton, target_shape, prev_x)

        def loss_fn(x, _ref=x_ref, _ctx=ctx, _mesh=mesh, _prev=prev_positions):
            terms = _terms_core(
                x, _ref, _ctx, target_skeleton, target_shape, _mesh, cfg, prev_positions=_prev
            )
            return sum(terms.values())

        def grad_fn(x, _ref=x_ref, _ctx=ctx, _mesh=mesh, _prev=prev_positions):
            return _gradient_core(
                x, _ref, _ctx, target_skeleton, target_shape, _mesh, cfg, prev_positions=_prev
            )

        def residual_jac_fn(x, _ref=x_ref, _ctx=ctx, _mesh=mesh, _prev=prev_positions):
            return _residuals_and_jacobian(
                x, _ref, _ctx, target_skeleton, target_shape, _mesh, cfg, prev_positions=_prev
            )

        def hinge_grad_fn(x, _ref=x_ref, _ctx=ctx):
            return _hinge_gradient(x, _ref, _ctx, target_skeleton, cfg)

        try:
            if cfg.optimizer.method == "gauss_newton":
                result = levenberg_marquardt(
                    residual_jac_fn, loss_fn, hinge_grad_fn, x_init, cfg.optimizer, project=project
                )
            else:
                result = adam_minimize(loss_fn, grad_fn, x_init, cfg.optimizer, project=project)
        except NumericalError as exc:
            raise NumericalError(f"frame {t}: {exc}") from exc
        solutions[t] = result.x
        prev_x = result.x
        terms = _terms_core(
            result.x, x_ref, ctx, target_skeleton, target_shape, mesh, cfg,
            prev_positions=prev_positions,
        )
        losses.append(
            FrameLoss(
                frame=t,
                total=sum(terms.values()),
                mesh_empty=mesh is None,
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
