"""Interaction-preserving motion retargeting and data-curation toolkit.

Submodules:
  motionio      on-disk skeleton/motion/mesh formats
  kinematics    forward kinematics, Jacobians, shape fitting
  interactmesh  Delaunay tetrahedralization and interact-mesh construction
  retarget      the per-frame retargeting objective and sequence optimizer
  smoothing     Sobolev root smoothing and windowed rotation filtering
  rewards       contact zones, tracking reward, critic loss
  schedule      distillation schedule simulator and episode-length filtering
  pipeline      manifest-driven end-to-end refinement
  cli           the `retargetkit` command-line interface
"""

__version__ = "0.1.0"

from .errors import DataError, EmptyInteractMeshError, NumericalError
from .interactmesh import InteractMesh, RetentionRule, build_interact_mesh, delaunay3d, laplacian
from .kinematics import Pose, fit_shape, fk, fk_jacobian
from .motionio import (
    MotionSequence,
    ObjectMesh,
    ShapeParams,
    Skeleton,
    load_motion,
    load_obj,
    load_skeleton,
    save_motion,
    save_obj,
    save_skeleton,
)
from .optim import OptimizerConfig
from .retarget import RetargetConfig, RetargetResult, retarget_sequence
from .rewards import RewardConfig, compute_reward, contact_label, critic_loss, interaction_graph
from .schedule import (
    ScheduleConfig,
    dagger_gate,
    filter_step,
    filter_until_converged,
    loss_weight,
    make_filter_state,
    reward_mode,
    run_schedule,
    select_source,
)
from .smoothing import SmoothConfig, second_diff_matrix, smooth_root, smooth_rotations

__all__ = [
    "__version__",
    "DataError",
    "EmptyInteractMeshError",
    "NumericalError",
    "InteractMesh",
    "RetentionRule",
    "build_interact_mesh",
    "delaunay3d",
    "laplacian",
    "Pose",
    "fit_shape",
    "fk",
    "fk_jacobian",
    "MotionSequence",
    "ObjectMesh",
    "ShapeParams",
    "Skeleton",
    "load_motion",
    "load_obj",
    "load_skeleton",
    "save_motion",
    "save_obj",
    "save_skeleton",
    "OptimizerConfig",
    "RetargetConfig",
    "RetargetResult",
    "retarget_sequence",
    "RewardConfig",
    "compute_reward",
    "contact_label",
    "critic_loss",
    "interaction_graph",
    "ScheduleConfig",
    "dagger_gate",
    "filter_step",
    "filter_until_converged",
    "loss_weight",
    "make_filter_state",
    "reward_mode",
    "run_schedule",
    "select_source",
    "SmoothConfig",
    "second_diff_matrix",
    "smooth_root",
    "smooth_rotations",
]
