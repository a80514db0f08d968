"""Progressive distillation schedule and the episode-length curation loop.

The schedule follows a teacher-probability gate max(1 - max((t - kappa) /
epsilon, 0), 0) per round t: pure teacher through kappa, linear annealing
over epsilon rounds, pure student after. The action-imitation loss weight w
follows the same expression (its outer min against 1 is redundant but kept
literal), and the reward objective switches from imitation to trajectory
tracking at round t_imit. The simulator executes the schedule over stub
policies and a stub environment; no network update happens, the blended
objective w * L + (1 - w) * J is only computed and logged.

Filtering: compute the mean episode length sigma over retained clips, drop
clips whose own mean sits strictly below sigma, and repeat until nothing
moves. The longest clip can never fall below the mean, so the retained set
stays non-empty and sigma never decreases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DataError, check_settings, setting

TEACHER = "teacher"
STUDENT = "student"
IMITATION = "imitation"
TRAJECTORY = "trajectory"

RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class ScheduleConfig:
    epsilon: float = setting(10.0, gt=0)  # annealing span, rounds
    kappa: float = setting(5.0, ge=0)  # pure-teacher span, rounds
    t_imit: int = setting(10, ge=0)  # reward-switch round
    horizon: int = setting(100, ge=1)  # steps per round
    seed: int = setting(0, ge=0)  # PCG64 takes no negative seed

    def __post_init__(self):
        check_settings(self)


def dagger_gate(t: float, cfg: ScheduleConfig) -> float:
    """Teacher-execution probability at round t."""
    if t < 0:
        raise DataError("round index must be nonnegative")
    return max(1.0 - max((t - cfg.kappa) / cfg.epsilon, 0.0), 0.0)


def loss_weight(t: float, cfg: ScheduleConfig) -> float:
    """Imitation-loss weight w at round t; the outer clamp at 1 is redundant
    but implemented as written."""
    if t < 0:
        raise DataError("round index must be nonnegative")
    return min(max(1.0 - max((t - cfg.kappa) / cfg.epsilon, 0.0), 0.0), 1.0)


def select_source(u: float, gate: float) -> str:
    """Teacher iff u <= gate (boundary inclusive)."""
    if not 0.0 <= u < 1.0:
        raise DataError("u must lie in [0, 1)")
    return TEACHER if u <= gate else STUDENT


def reward_mode(t: float, cfg: ScheduleConfig) -> str:
    """Imitation reward strictly before t_imit, trajectory reward after."""
    if t < 0:
        raise DataError("round index must be nonnegative")
    return IMITATION if t < cfg.t_imit else TRAJECTORY


@dataclass(frozen=True)
class Transition:
    round: int
    step: int
    state: float
    next_state: float
    action: float  # student proposal
    expert_action: float  # teacher action
    source: str  # which action was executed


@dataclass(frozen=True)
class RoundRecord:
    round: int
    gate: float
    weight: float
    teacher_fraction: float
    reward_mode: str
    action_loss: float  # J = mean |a - a_e| over the round
    objective: float  # L from the stub objective
    blended: float  # w * L + (1 - w) * J


@dataclass(frozen=True)
class ScheduleLog:
    rng_algorithm: str
    seed: int
    config: ScheduleConfig
    rounds: tuple[RoundRecord, ...]
    transitions: tuple[Transition, ...]


def point_mass_env(state: float, action: float, dt: float = 0.1) -> float:
    """1-D kinematic point mass: the action pushes the state directly."""
    return state + dt * action


def pd_teacher(target: float = 1.0, gain: float = 1.0) -> Callable[[float], float]:
    """Proportional push toward a target position."""
    return lambda state: gain * (target - state)


def lazy_student(target: float = 1.0, gain: float = 0.4) -> Callable[[float], float]:
    """Weaker proportional controller standing in for the untrained policy."""
    return lambda state: gain * (target - state)


def run_schedule(
    teacher: Callable[[float], float],
    student: Callable[[float], float],
    env: Callable[[float, float], float],
    cfg: ScheduleConfig,
    rounds: int,
) -> ScheduleLog:
    """Execute the distillation schedule over stub policies.

    Per round: reset the environment, then for each of the horizon steps draw
    one uniform sample, query both policies at the current state, execute the
    teacher's action iff u <= gate, and store the transition. After the round,
    log the gate, the loss weight, the realized teacher fraction, the reward
    mode, and the blended objective value. Bit-deterministic for a fixed seed
    (one generator, one draw per step, algorithm recorded in the log header).
    """
    if rounds < 1:
        raise DataError("need at least one round")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

    records: list[RoundRecord] = []
    transitions: list[Transition] = []
    for t in range(rounds):
        gate = dagger_gate(t, cfg)
        w = loss_weight(t, cfg)
        mode = reward_mode(t, cfg)
        state = 0.0
        teacher_steps = 0
        round_transitions: list[Transition] = []
        for h in range(1, cfg.horizon + 1):
            u = float(rng.random())
            expert_action = float(teacher(state))
            action = float(student(state))
            source = select_source(u, gate)
            executed = expert_action if source == TEACHER else action
            next_state = float(env(state, executed))
            tr = Transition(
                round=t,
                step=h,
                state=state,
                next_state=next_state,
                action=action,
                expert_action=expert_action,
                source=source,
            )
            round_transitions.append(tr)
            if source == TEACHER:
                teacher_steps += 1
            state = next_state
        action_loss = float(
            np.mean([abs(tr.action - tr.expert_action) for tr in round_transitions])
        )
        if mode == IMITATION:
            objective = action_loss
        else:  # stub trajectory error: mean distance of visited states from the origin
            objective = float(np.mean([abs(tr.next_state) for tr in round_transitions]))
        records.append(
            RoundRecord(
                round=t,
                gate=gate,
                weight=w,
                teacher_fraction=teacher_steps / cfg.horizon,
                reward_mode=mode,
                action_loss=action_loss,
                objective=objective,
                blended=w * objective + (1.0 - w) * action_loss,
            )
        )
        transitions.extend(round_transitions)
    return ScheduleLog(
        rng_algorithm=RNG_ALGORITHM,
        seed=cfg.seed,
        config=cfg,
        rounds=tuple(records),
        transitions=tuple(transitions),
    )


# ---------------------------------------------------------------------------
# episode-length filtering


@dataclass(frozen=True)
class ClipStats:
    clip_id: str
    episode_lengths: tuple[float, ...]

    def __post_init__(self):
        if not self.episode_lengths:
            raise DataError(f"clip {self.clip_id!r} has no episode lengths")
        if not all(0.0 <= x < math.inf for x in self.episode_lengths):  # NaN fails both
            raise DataError(f"clip {self.clip_id!r} has a negative or non-finite episode length")

    @cached_property
    def mean_length(self) -> float:
        return float(np.mean(self.episode_lengths))


@dataclass(frozen=True)
class FilterState:
    clips: tuple[ClipStats, ...]
    removed: frozenset[str] = frozenset()
    sigma: float = 0.0
    iteration: int = 0
    sigma_history: tuple[float, ...] = field(default_factory=tuple)

    @property
    def retained(self) -> tuple[ClipStats, ...]:
        return tuple(c for c in self.clips if c.clip_id not in self.removed)


def _clip_stats(clip_id: str, lengths) -> ClipStats:
    # JSON ints and floats only: no bool and no text, as the loaders read numbers
    if not isinstance(lengths, (list, tuple)) or not set(map(type, lengths)) <= {int, float}:
        raise DataError(f"clip {clip_id!r}: episode lengths must be a list of numbers, got {lengths!r}")
    try:
        floats = tuple(map(float, lengths))
    except OverflowError:  # an int beyond a float's range
        raise DataError(f"clip {clip_id!r} has a negative or non-finite episode length") from None
    return ClipStats(clip_id, floats)


def make_filter_state(stats) -> FilterState:
    """Build the initial state from {clip_id: [lengths]}, as JSON gives it;
    a FilterState can also be built directly from ClipStats."""
    if not isinstance(stats, dict):
        raise DataError(f"clip stats must map clip ids to lists of episode lengths, got {type(stats).__name__}")
    clips = tuple(_clip_stats(str(k), v) for k, v in stats.items())
    if not clips:
        raise DataError("need at least one clip")
    ids = [c.clip_id for c in clips]
    if len(set(ids)) != len(ids):
        raise DataError("clip ids must be unique")
    sigma = float(np.mean([c.mean_length for c in clips]))
    return FilterState(clips=clips, sigma=sigma, sigma_history=(sigma,))


def filter_step(state: FilterState) -> FilterState:
    """One curation pass: drop retained clips with mean length strictly below
    the current mean, then recompute it."""
    retained = state.retained
    if not retained:
        raise DataError("no retained clips")
    sigma = float(np.mean([c.mean_length for c in retained]))
    to_remove = {c.clip_id for c in retained if c.mean_length < sigma}
    survivors = [c for c in retained if c.clip_id not in to_remove]
    assert survivors, "the longest clip can never fall below the mean"
    new_sigma = float(np.mean([c.mean_length for c in survivors]))
    return replace(
        state,
        removed=state.removed | to_remove,
        sigma=new_sigma,
        iteration=state.iteration + 1,
        sigma_history=state.sigma_history + (new_sigma,),
    )


def filter_until_converged(state: FilterState) -> FilterState:
    """Iterate filter_step until no clip is removed; sigma never decreases and
    the loop ends within the initial clip count. Already-converged input comes
    back unchanged."""
    while True:
        after = filter_step(state)
        if after.removed == state.removed:
            return state
        state = after


def filter_document(state: FilterState) -> dict:
    """The filter's outcome as a JSON document: the retained and removed clip
    ids, the mean length after each pass and the number of passes."""
    return {
        "retained": sorted(c.clip_id for c in state.retained),
        "removed": sorted(state.removed),
        "sigma_history": list(state.sigma_history),
        "iterations": state.iteration,
    }
