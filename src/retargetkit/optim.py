"""Damped Gauss-Newton with monotone step acceptance.

Per-frame retargeting descends through this loop. A proposed step is
accepted only if it does not increase the loss; rejected steps raise the
damping, so the accepted loss sequence is non-increasing by construction.
The solve converges on an accepted step h with ||h|| <= STEP_TOL * (||x|| +
STEP_TOL), the step test of Madsen, Nielsen & Tingleff ("Methods for
Non-Linear Least Squares Problems", IMM DTU 2004), or after `patience`
stalls. The step test does not depend on the loss's scale, so a solve that
starts at its optimum stops after one iteration, however close to zero the
loss is.

The loop is one problem's state machine, `descent`, a generator that asks
for what it needs: the loss at a trial point, the normal equations at an
accepted point, and a damped step. One loop answers it,
`lockstep_levenberg_marquardt`: it runs K problems side by side and answers
each kind of pending request for all of them in one batched call: one stacked
evaluation of the K trial points, one of the normal equations, one stacked
`np.linalg.solve`. Each problem keeps its own x, loss, damping, stall count,
cached normal equations and stop rule, so it takes the iterations, and
returns the result, that it takes and returns in a batch of its own. A
problem that stops leaves the batch; one that raises `NumericalError` ends
with that error and leaves the others running. `levenberg_marquardt` is that
loop on one problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import NumericalError, check_settings, setting

STEP_TOL = 1e-10  # Madsen, Nielsen & Tingleff's epsilon_2


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = setting(100, ge=1)
    # Converged on an accepted step within STEP_TOL of x (relative), or once
    # the relative improvement stays below improvement_tol for `patience`
    # consecutive iterations (rejected steps count as stalls); the stall rule
    # ends the frames that never take such a step.
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


TRIAL, NORMAL, SOLVE = "trial", "normal", "solve"  # the requests of `descent`

# descent's requests and the answers it expects:
#   (TRIAL, x)          -> (x projected onto the feasible set, loss there)
#   (NORMAL, x)         -> (J^T J, J^T r, extra gradient or None) at x
#   (SOLVE, (a, b))     -> the solution of a @ step = b, or None when a is singular
Request = tuple[str, object]


def descent(x0: np.ndarray, cfg: OptimizerConfig) -> Generator[Request, object, OptimizeResult]:
    """One problem's damped Gauss-Newton, as a generator of requests that
    returns the OptimizeResult.

    The extra gradient covers non-least-squares terms of the loss linearly.
    Steps are accepted only when the *full* loss does not increase, so the
    accepted sequence is monotone even where the quadratic model is off.
    """
    x, loss = yield TRIAL, np.asarray(x0, dtype=float).copy()
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss at iteration 0")

    lam = 1e-4
    stall = 0
    converged = False
    it = 0
    cached: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    for it in range(1, cfg.max_iterations + 1):
        if cached is None:
            jtj, jtr, extra = yield NORMAL, x
            if not (np.all(np.isfinite(jtj)) and np.all(np.isfinite(jtr))):
                raise NumericalError(f"non-finite normal equations at iteration {it}")
            rhs = -jtr
            if extra is not None:
                rhs -= 0.5 * extra
            diag = np.diag(jtj).copy()
            diag[diag <= 0.0] = 1.0
            cached = (jtj, rhs, diag)
        jtj, rhs, diag = cached
        step = yield SOLVE, (jtj + lam * np.diag(diag), rhs)
        if step is None:
            lam = max(lam, 1e-8) * 10.0
            stall += 1
            if stall >= cfg.patience:
                converged = True
                break
            continue
        x_new, loss_new = yield TRIAL, x + step
        if not np.isfinite(loss_new):
            raise NumericalError(f"non-finite loss at iteration {it}")
        if loss_new <= loss:
            rel = (loss - loss_new) / max(abs(loss), 1e-300)
            stall = stall + 1 if rel < cfg.improvement_tol else 0
            small = np.linalg.norm(x_new - x) <= STEP_TOL * (np.linalg.norm(x) + STEP_TOL)
            x, loss = x_new, loss_new
            if small:
                converged = True
                break
            lam = max(lam / 3.0, 1e-12)
            cached = None
        else:
            lam = max(lam, 1e-12) * 4.0
            stall += 1
        if stall >= cfg.patience:
            converged = True
            break
    return OptimizeResult(x=x, loss=loss, iterations=it, converged=converged)


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
    project: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> OptimizeResult:
    """`lockstep_levenberg_marquardt` on the one problem started at x0, whose
    callables take and answer its one row: its OptimizeResult, or its
    NumericalError raised."""
    (result,) = lockstep_levenberg_marquardt(normal_fn, loss_fn, extra_grad_fn, np.asarray(x0)[None], cfg, project)
    if isinstance(result, NumericalError):
        raise result
    return result


def lockstep_levenberg_marquardt(
    normal_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    loss_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    extra_grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None,
    x0: np.ndarray,
    cfg: OptimizerConfig | None = None,
    project: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> list[OptimizeResult | NumericalError]:
    """Damped Gauss-Newton descent on K least-squares problems at once,
    started at the rows of x0.

    Every callable takes (members, X): the (m,) indices of the problems asking
    and their (m, P) points, and answers for each row. normal_fn returns the
    (m, P, P) and (m, P) normal equations (J^T J, J^T r) of the least-squares
    part, loss approx ||r||^2 (+ non-LSQ terms covered by loss_fn's (m,)
    losses and, linearly, by extra_grad_fn's (m, P) gradients). project maps
    the (m, P) trial points onto the feasible set before their losses are
    evaluated. A problem's row of an answer must not depend on the other rows.
    Returns one OptimizeResult per problem, equal to what it returns in a
    batch of its own, or the NumericalError it raises there.
    """
    cfg = cfg or OptimizerConfig()
    solves = [descent(x, cfg) for x in np.asarray(x0, dtype=float)]
    results: list[OptimizeResult | NumericalError | None] = [None] * len(solves)
    pending = {k: next(solve) for k, solve in enumerate(solves)}
    while pending:
        # one round is one iteration of every member: the members asking for
        # normal equations, then every member's step, then the trial points
        for kind in (NORMAL, SOLVE, TRIAL):
            rows = [k for k, (asked, _) in pending.items() if asked == kind]
            if not rows:
                continue
            payloads = [pending[k][1] for k in rows]
            members = np.array(rows)
            if kind == TRIAL:
                x = np.stack(payloads)
                if project is not None:
                    x = project(members, x)
                losses = loss_fn(members, x)
                answers = [(x[i], float(losses[i])) for i in range(len(rows))]
            elif kind == NORMAL:
                x = np.stack(payloads)
                jtj, jtr = normal_fn(members, x)
                extra = [None] * len(rows) if extra_grad_fn is None else extra_grad_fn(members, x)
                answers = list(zip(jtj, jtr, extra))
            else:
                answers = _stacked_solve(payloads)
            for k, answer in zip(rows, answers):
                try:
                    pending[k] = solves[k].send(answer)
                except StopIteration as stop:
                    results[k] = stop.value
                    del pending[k]
                except NumericalError as exc:
                    results[k] = exc
                    del pending[k]
    return results


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
