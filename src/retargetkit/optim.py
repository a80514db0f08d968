"""Damped Gauss-Newton with monotone step acceptance.

Per-frame retargeting descends through this loop. A proposed step is
accepted only if it does not increase the loss; rejected steps raise the
damping, so the accepted loss sequence is non-increasing by construction.
Every point is clipped into its problem's box (the target's joint limits)
before its loss is evaluated, the projection of Bertsekas's projected Newton
methods (SIAM J. Control Optim. 1982). A solve converges by the first of
three rules to hold:
- predicted gain: at an accepted point (or the start), the undamped
  Gauss-Newton step h predicts a loss decrease 2 h^T rhs - h^T (J^T J) h of
  at most `improvement_tol` times the loss. The solve stops at that point
  without evaluating a trial. This ends the linear tail of a residual that
  is nonzero at its optimum (a scaled target). The damped step's prediction
  alone is no test: after rejections have raised the damping, it is small
  however far the optimum is.
- step: an accepted step h with ||h|| <= STEP_TOL * (||x|| + STEP_TOL), the
  step test of Madsen, Nielsen & Tingleff ("Methods for Non-Linear Least
  Squares Problems", IMM DTU 2004). It does not depend on the loss's scale,
  so a solve that starts at its optimum stops after one iteration, however
  close to zero the loss is.
- stall: `patience` iterations in a row that improve the loss by less than
  `improvement_tol` relative, rejected steps included.

There is one loop, `lockstep_levenberg_marquardt`. It runs K problems side
by side, and each round is one iteration of every running problem: one
batched evaluation of the normal equations at the points that moved, one
stacked `np.linalg.solve` of every damped system, and one batched evaluation
of the trial points. Each problem keeps its own x, loss, damping, stall
count, damped system and stop rule, so it takes the iterations, and returns
the result, that it takes and returns in a batch of its own. A problem that
stops leaves the batch; one that meets a non-finite value ends with a
`NumericalError` and leaves the others running. `levenberg_marquardt` is that
loop on one problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError, check_settings, setting

STEP_TOL = 1e-10  # Madsen, Nielsen & Tingleff's epsilon_2


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = setting(100, ge=1)
    # Converged when the Gauss-Newton step at an accepted point predicts a
    # relative loss decrease of at most improvement_tol, on an accepted step
    # within STEP_TOL of x (relative), or once the relative improvement stays
    # below improvement_tol for `patience` consecutive iterations (rejected
    # steps count as stalls). Each rule is the first to hold on some frames.
    improvement_tol: float = setting(1e-12, ge=0)
    patience: int = setting(6, ge=1)

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class OptimizeResult:
    x: np.ndarray
    loss: float
    iterations: int
    converged: bool


@dataclass
class _Problem:
    """One running problem of the loop: its point and the loss there, its
    damping and stall count, and its normal equations at the point as (J^T J,
    right-hand side, damping diagonal), None until they are evaluated there."""

    x: np.ndarray
    loss: float
    lam: float = 1e-4
    stall: int = 0
    system: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def damped(self) -> tuple[np.ndarray, np.ndarray]:
        jtj, rhs, diag = self.system
        return jtj + self.lam * np.diag(diag), rhs


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None


def levenberg_marquardt(
    normal_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    loss_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    extra_grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    x0: np.ndarray,
    cfg: OptimizerConfig | None = None,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> OptimizeResult:
    """`lockstep_levenberg_marquardt` on the one problem started at x0, whose
    callables take and answer its one row and whose bounds are its (P,) box:
    its OptimizeResult, or its NumericalError raised."""
    box = None if bounds is None else tuple(np.asarray(b)[None] for b in bounds)
    (result,) = lockstep_levenberg_marquardt(normal_fn, loss_fn, extra_grad_fn, np.asarray(x0)[None], cfg, box)
    if isinstance(result, NumericalError):
        raise result
    return result


def lockstep_levenberg_marquardt(
    normal_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    loss_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    extra_grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    x0: np.ndarray,
    cfg: OptimizerConfig | None = None,
    bounds: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[OptimizeResult | NumericalError]:
    """Damped Gauss-Newton descent on K least-squares problems at once,
    started at the rows of x0.

    Every callable takes (members, X): the (m,) indices of the problems asking
    and their (m, P) points, and answers for each row. normal_fn returns the
    (m, P, P) and (m, P) normal equations (J^T J, J^T r) of the least-squares
    part, loss approx ||r||^2 (+ non-LSQ terms covered by loss_fn's (m,)
    losses and, linearly, by extra_grad_fn's (m, P) gradients). Steps are
    accepted only when the *full* loss does not increase, so the accepted
    sequence is monotone even where the quadratic model is off. bounds,
    (lo, hi) of (K, P) each, +-inf on a free coordinate, is the box every
    point is clipped to before its loss is evaluated, x0's rows included.
    A problem's row of an answer must not depend on the other rows.
    A round asks for normal equations only at the points its previous round's
    losses accepted, and for the trial losses last, so a caller that keeps its
    last evaluation (`retarget.FrameStack`) evaluates each point once.
    Returns one OptimizeResult per problem, equal to what it returns in a
    batch of its own, or the NumericalError it raises there.
    """
    cfg = cfg or OptimizerConfig()
    x0 = np.array(x0, dtype=float)
    results: list[OptimizeResult | NumericalError | None] = [None] * len(x0)
    running: dict[int, _Problem] = {}

    def trial(members, x):
        """The members' points x clipped to their boxes, each with its loss."""
        members = np.array(members)
        if bounds is not None:
            x = np.clip(x, bounds[0][members], bounds[1][members])
        return zip(x, map(float, loss_fn(members, x)))

    def stop(k, outcome):
        results[k] = outcome
        del running[k]

    for k, (x, loss) in enumerate(trial(range(len(x0)), x0)):
        if np.isfinite(loss):
            running[k] = _Problem(x, loss)
        else:
            results[k] = NumericalError("non-finite loss at iteration 0")
    for it in range(1, cfg.max_iterations + 1):
        moved = [k for k, p in running.items() if p.system is None]
        if moved:
            members = np.array(moved)
            x = np.stack([running[k].x for k in moved])
            jtj, jtr = normal_fn(members, x)
            extra = [None] * len(moved) if extra_grad_fn is None else extra_grad_fn(members, x)
            for k, a, g, e in zip(moved, jtj, jtr, extra):
                if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
                    stop(k, NumericalError(f"non-finite normal equations at iteration {it}"))
                    continue
                rhs = -g
                if e is not None:
                    rhs -= 0.5 * e
                diag = np.diag(a).copy()
                diag[diag <= 0.0] = 1.0
                running[k].system = (a, rhs, diag)
        if not running:
            break
        steps = dict(zip(running, _stacked_solve([p.damped() for p in running.values()])))
        for k in moved:  # once per point: its undamped model ignores the damping
            p = running.get(k)
            if p is not None and steps[k] is not None and _no_gain(p, steps[k], cfg.improvement_tol):
                stop(k, OptimizeResult(x=p.x, loss=p.loss, iterations=it, converged=True))
        stepped = [k for k, step in steps.items() if k in running and step is not None]
        tried = {}
        if stepped:
            tried = dict(zip(stepped, trial(stepped, np.stack([running[k].x + steps[k] for k in stepped]))))
        for k, p in list(running.items()):
            if k not in tried:  # a singular damped system
                p.lam = max(p.lam, 1e-8) * 10.0
                p.stall += 1
            else:
                x, loss = tried[k]
                if not np.isfinite(loss):
                    stop(k, NumericalError(f"non-finite loss at iteration {it}"))
                    continue
                if loss <= p.loss:
                    rel = (p.loss - loss) / max(abs(p.loss), 1e-300)
                    p.stall = p.stall + 1 if rel < cfg.improvement_tol else 0
                    small = np.linalg.norm(x - p.x) <= STEP_TOL * (np.linalg.norm(p.x) + STEP_TOL)
                    p.x, p.loss = x, loss
                    if small:
                        stop(k, OptimizeResult(x=p.x, loss=p.loss, iterations=it, converged=True))
                        continue
                    p.lam = max(p.lam / 3.0, 1e-12)
                    p.system = None
                else:
                    p.lam = max(p.lam, 1e-12) * 4.0
                    p.stall += 1
            if p.stall >= cfg.patience:
                stop(k, OptimizeResult(x=p.x, loss=p.loss, iterations=it, converged=True))
    for k, p in running.items():
        results[k] = OptimizeResult(x=p.x, loss=p.loss, iterations=cfg.max_iterations, converged=False)
    return results


def _no_gain(p: _Problem, h: np.ndarray, tol: float) -> bool:
    """Whether the Gauss-Newton model at p's point, where its normal equations
    were just evaluated, predicts a loss decrease of at most tol times p's
    loss. The damped step h predicts no more than the undamped step does, so
    the undamped system is solved only when h's prediction is within the
    bound. A non-finite prediction or a singular J^T J never stops a solve."""
    jtj, rhs, _ = p.system
    bound = tol * p.loss
    if _predicted_gain(jtj, rhs, h) > bound:
        return False
    undamped = _solve(jtj, rhs)
    return undamped is not None and _predicted_gain(jtj, rhs, undamped) <= bound


def _predicted_gain(jtj: np.ndarray, rhs: np.ndarray, h: np.ndarray) -> float:
    """The model's loss decrease 2 h^T rhs - h^T (J^T J) h along h; inf when
    that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        gain = 2.0 * (h @ rhs) - h @ (jtj @ h)
    return float(gain) if np.isfinite(gain) else np.inf


def _stacked_solve(systems: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[np.ndarray | None]:
    """The steps of several damped systems from one stacked np.linalg.solve,
    which makes one LAPACK call per matrix; when one is singular, each is
    solved alone."""
    a = np.stack([s[0] for s in systems])
    b = np.stack([s[1] for s in systems])
    try:
        return list(np.linalg.solve(a, b[..., None])[..., 0])
    except np.linalg.LinAlgError:
        return [_solve(*s) for s in systems]
