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

Observations, contacts and labels may carry a leading frame axis: a stack of
T frames is scored in one call, as T single-frame calls would score it.
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
    """One agent-object observation with deltas against the reference, or a
    stack of T of them: every array then has a leading (T,) axis."""

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
        shape = self.joint_pos.shape
        if len(shape) < 2 or shape[-1] != 3 or self.joint_lin_vel.shape != shape:
            raise DataError("joint position/velocity shapes inconsistent")
        if self.joint_rot.shape != self.joint_ang_vel.shape:
            raise DataError("joint rotation/angular velocity shapes inconsistent")
        if self.contacts.shape != shape[:-1] or not np.all(np.isin(self.contacts, (0, 1))):
            raise DataError("contact indicators must be per-joint values in {0, 1}")
        if self.interaction_graph.shape != shape:
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
    """Per-joint vector to the nearest object vertex;
    joints (..., J, 3) and obj_vertices (..., V, 3) broadcast over frames.

    The nearest vertex is the smallest rounded squared distance, summed as
    (dx² + dz²) + dy². That is the order in which numpy's einsum (2.4.6)
    sums the three products, the formula the reward CSVs were written with,
    so every pick keeps its vertex; another order moves near-tie picks.
    Only an exact tie of the rounded distances goes to the lowest vertex
    index: near-ties are decided by rounding. The (..., J, V) distances are
    built in place, one axis at a time, without a (..., J, V, 3) difference
    array.
    """
    joints = np.asarray(joints, dtype=float)
    verts = np.asarray(obj_vertices, dtype=float)
    if verts.shape[-2] == 0:
        raise DataError("object has no vertices")

    def squared_difference(axis, out=None):  # (..., J, V)
        out = np.subtract(joints[..., :, None, axis], verts[..., None, :, axis], out=out)
        return np.multiply(out, out, out=out)

    d2 = squared_difference(0)
    term = squared_difference(2)
    d2 += term
    d2 += squared_difference(1, out=term)
    nearest = np.argmin(d2, axis=-1)  # argmin returns the first minimum
    verts = np.broadcast_to(verts, d2.shape[:-2] + verts.shape[-2:])
    return np.take_along_axis(verts, nearest[..., None], axis=-2) - joints


def contact_label(distance: float, cfg: RewardConfig | None = None) -> int:
    """Zone label: 1 below contact_near, 0 through contact_far, -1 beyond.

    Both boundary values land in the buffer zone.
    """
    cfg = cfg or RewardConfig()
    if not distance >= 0:  # NaN fails too
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
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Composite reward and its factors: (R, {imitation, contact, energy}).

    forces is the list of contact-force magnitudes; empty or None means no
    force penalty. Perfect tracking (zero deltas, matching contacts, zero
    velocities and forces) yields exactly 1.0.

    One frame gives np.float64 scalars (a float subclass); a stack of T
    frames, with (T, J) ref_contacts and (T, K) forces, gives (T,) arrays
    equal bit for bit to T single-frame calls.
    """
    cfg = cfg or RewardConfig()
    lead = obs.joint_pos.shape[:-2]
    delta_penalty = np.zeros(lead)
    for name in DELTA_COMPONENTS:
        delta = obs.deltas.get(name)
        if delta is None:
            continue
        if not np.all(np.isfinite(delta)):
            raise DataError(f"delta component {name!r} contains non-finite values")
        flat = np.reshape(delta, lead + (1, -1))  # each frame's norm as np.linalg.norm's sqrt(x.dot(x))
        delta_penalty += cfg.weight(name) * np.sqrt((flat @ np.swapaxes(flat, -1, -2))[..., 0, 0])

    mismatch = contact_mismatch(ref_contacts, obs.contacts)

    vel = obs.joint_ang_vel if cfg.energy_velocity == "angular" else obs.joint_lin_vel
    speed_sum = np.linalg.norm(vel, axis=-1).sum(axis=-1)
    force_max = 0.0
    if forces is not None and np.size(forces):
        forces = np.abs(np.reshape(np.asarray(forces, dtype=float), lead + (-1,)))
        if not np.all(np.isfinite(forces)):
            raise DataError("forces contain non-finite values")
        force_max = forces.max(axis=-1)

    factors = {
        "imitation": np.exp(-cfg.lambda_delta * delta_penalty),
        "contact": np.exp(-cfg.lambda_c * mismatch.sum(axis=-1)),
        "energy": np.exp(-cfg.lambda_v * speed_sum - cfg.lambda_f * force_max),
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
