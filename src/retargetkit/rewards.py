"""Zoned contact labeling, observation deltas, and the composite tracking
reward, plus the shared-critic regression loss.

The reward multiplies three factors, each exp(-penalty) with nonnegative
penalties, so every factor and the product live in (0, 1]:

  imitation   exp(-lambda_delta * sum_k omega_k ||delta_k||)
  contact     exp(-lambda_c * sum_j mismatch_j)
  energy      exp(-lambda_v * sum_j ||vel_j|| - lambda_f * max_f |f|)

Reference contact labels live in {-1, 0, 1}; simulated indicators in {0, 1}.
A reference label of 1 penalizes a missing contact, -1 penalizes a present
one, and 0 ignores the joint. Contact indicators come from the caller (a
simulator or labels carried in the motion file); no collision detection
happens here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, Range, check_settings, setting
from .rotations import quat_log_relative

DELTA_COMPONENTS = (
    "joint_pos",
    "joint_rot",
    "joint_lin_vel",
    "joint_ang_vel",
    "obj_pos",
    "obj_rot",
    "obj_lin_vel",
    "obj_ang_vel",
    "interaction_graph",
)
OMEGA_WEIGHT = Range(float, ge=0)  # the valid values of each per-component weight


@dataclass(frozen=True)
class RewardConfig:
    lambda_delta: float = setting(1.0, ge=0)
    lambda_c: float = setting(1.0, ge=0)
    lambda_v: float = setting(1.0, ge=0)
    lambda_f: float = setting(1.0, ge=0)
    omega: dict[str, float] = field(default_factory=dict)  # per-component, default 1.0
    contact_near: float = setting(0.07, gt=0)  # meters: closer counts as contact
    contact_far: float = setting(0.2, gt=0)  # meters: farther counts as penalty zone
    energy_velocity: str = setting("angular", choices=("angular", "linear"))

    def __post_init__(self):
        check_settings(self)
        if not self.contact_near < self.contact_far:
            raise DataError("need 0 < contact_near < contact_far")
        if not all(OMEGA_WEIGHT.admits(w) for w in self.omega.values()):
            raise DataError(f"omega weights must each be {OMEGA_WEIGHT}")
        unknown = set(self.omega) - set(DELTA_COMPONENTS)
        if unknown:
            raise DataError(f"unknown delta components in omega: {sorted(unknown)}")

    def weight(self, component: str) -> float:
        return self.omega.get(component, 1.0)


@dataclass(frozen=True)
class ObservationFrame:
    """One agent-object observation with deltas against the reference."""

    joint_pos: np.ndarray  # (J, 3) m
    joint_rot: np.ndarray  # (J-1, 3) exp-map rad
    joint_lin_vel: np.ndarray  # (J, 3) m/s
    joint_ang_vel: np.ndarray  # (J-1, 3) rad/s
    contacts: np.ndarray  # (J,) int in {0, 1}
    obj_pos: np.ndarray  # (3,)
    obj_rot: np.ndarray  # (4,) wxyz
    obj_lin_vel: np.ndarray  # (3,)
    obj_ang_vel: np.ndarray  # (3,)
    interaction_graph: np.ndarray  # (J, 3) joint -> nearest object vertex
    deltas: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        j = self.joint_pos.shape[0]
        if self.joint_pos.shape != (j, 3) or self.joint_lin_vel.shape != (j, 3):
            raise DataError("joint position/velocity shapes inconsistent")
        if self.joint_rot.shape != self.joint_ang_vel.shape:
            raise DataError("joint rotation/angular velocity shapes inconsistent")
        if self.contacts.shape != (j,) or not np.all(np.isin(self.contacts, (0, 1))):
            raise DataError("contact indicators must be per-joint values in {0, 1}")
        if self.interaction_graph.shape != (j, 3):
            raise DataError("interaction graph must be (J, 3)")
        for arr in (self.joint_pos, self.joint_rot, self.joint_lin_vel, self.joint_ang_vel,
                    self.obj_pos, self.obj_rot, self.obj_lin_vel, self.obj_ang_vel,
                    self.interaction_graph):
            if not np.all(np.isfinite(arr)):
                raise DataError("observation contains non-finite values")


def observation_deltas(obs: ObservationFrame, ref: ObservationFrame) -> dict[str, np.ndarray]:
    """Component-wise differences against a reference observation.

    The object rotation delta is the rotation vector taking the reference
    orientation to the observed one, so q and -q count as the same rotation.
    """
    return {
        "joint_pos": obs.joint_pos - ref.joint_pos,
        "joint_rot": obs.joint_rot - ref.joint_rot,
        "joint_lin_vel": obs.joint_lin_vel - ref.joint_lin_vel,
        "joint_ang_vel": obs.joint_ang_vel - ref.joint_ang_vel,
        "obj_pos": obs.obj_pos - ref.obj_pos,
        "obj_rot": quat_log_relative(ref.obj_rot, obs.obj_rot),
        "obj_lin_vel": obs.obj_lin_vel - ref.obj_lin_vel,
        "obj_ang_vel": obs.obj_ang_vel - ref.obj_ang_vel,
        "interaction_graph": obs.interaction_graph - ref.interaction_graph,
    }


def with_reference(obs: ObservationFrame, ref: ObservationFrame) -> ObservationFrame:
    """Copy of obs with deltas populated against ref."""
    from dataclasses import replace

    return replace(obs, deltas=observation_deltas(obs, ref))


def interaction_graph(joints: np.ndarray, obj_vertices: np.ndarray) -> np.ndarray:
    """Per-joint vector to the nearest object vertex (ties: lowest index)."""
    joints = np.asarray(joints, dtype=float).reshape(-1, 3)
    verts = np.asarray(obj_vertices, dtype=float).reshape(-1, 3)
    if len(verts) == 0:
        raise DataError("object has no vertices")
    d2 = np.einsum("jvi,jvi->jv", joints[:, None] - verts[None], joints[:, None] - verts[None])
    nearest = np.argmin(d2, axis=1)  # argmin returns the first minimum
    return verts[nearest] - joints


def contact_label(distance: float, cfg: RewardConfig | None = None) -> int:
    """Zone label: 1 below contact_near, 0 through contact_far, -1 beyond.

    Both boundary values land in the buffer zone.
    """
    cfg = cfg or RewardConfig()
    if distance < 0:
        raise DataError(f"distance must be nonnegative, got {distance}")
    if distance < cfg.contact_near:
        return 1
    if distance <= cfg.contact_far:
        return 0
    return -1


def contact_mismatch(ref_labels: np.ndarray, contacts: np.ndarray) -> np.ndarray:
    """Per-joint mismatch: |1 - c| where the reference demands contact, c where
    it forbids contact, 0 in the buffer zone."""
    ref_labels = np.asarray(ref_labels)
    contacts = np.asarray(contacts)
    if ref_labels.shape != contacts.shape:
        raise DataError("reference labels and contacts must align")
    if not np.all(np.isin(ref_labels, (-1, 0, 1))):
        raise DataError("reference labels must lie in {-1, 0, 1}")
    out = np.zeros(ref_labels.shape)
    out[ref_labels == 1] = np.abs(1 - contacts[ref_labels == 1])
    out[ref_labels == -1] = contacts[ref_labels == -1]
    return out


def compute_reward(
    obs: ObservationFrame,
    ref_contacts: np.ndarray,
    forces: np.ndarray | None = None,
    cfg: RewardConfig | None = None,
) -> tuple[float, dict[str, float]]:
    """Composite reward and its factors: (R, {imitation, contact, energy}).

    forces is the list of contact-force magnitudes; empty or None means no
    force penalty. Perfect tracking (zero deltas, matching contacts, zero
    velocities and forces) yields exactly 1.0.
    """
    cfg = cfg or RewardConfig()
    delta_penalty = 0.0
    for name in DELTA_COMPONENTS:
        delta = obs.deltas.get(name)
        if delta is None:
            continue
        if not np.all(np.isfinite(delta)):
            raise DataError(f"delta component {name!r} contains non-finite values")
        delta_penalty += cfg.weight(name) * float(np.linalg.norm(delta))

    mismatch = contact_mismatch(ref_contacts, obs.contacts)

    vel = obs.joint_ang_vel if cfg.energy_velocity == "angular" else obs.joint_lin_vel
    speed_sum = float(np.linalg.norm(vel, axis=1).sum())
    force_max = 0.0
    if forces is not None and len(np.atleast_1d(forces)):
        forces = np.abs(np.atleast_1d(np.asarray(forces, dtype=float)))
        if not np.all(np.isfinite(forces)):
            raise DataError("forces contain non-finite values")
        force_max = float(forces.max())

    factors = {
        "imitation": float(np.exp(-cfg.lambda_delta * delta_penalty)),
        "contact": float(np.exp(-cfg.lambda_c * mismatch.sum())),
        "energy": float(np.exp(-cfg.lambda_v * speed_sum - cfg.lambda_f * force_max)),
    }
    reward = factors["imitation"] * factors["contact"] * factors["energy"]
    return reward, factors


def critic_loss(predictions: np.ndarray, rewards: np.ndarray) -> float:
    """Mean squared value-regression error pooled over agents and steps."""
    predictions = np.asarray(predictions, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    if predictions.shape != rewards.shape:
        raise DataError(
            f"prediction shape {predictions.shape} != reward shape {rewards.shape}"
        )
    if predictions.size == 0:
        raise DataError("need at least one agent and one step")
    return float(np.mean((predictions - rewards) ** 2))
