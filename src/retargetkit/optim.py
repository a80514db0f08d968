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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def levenberg_marquardt(
    normal_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    loss_fn: Callable[[np.ndarray], float],
    extra_grad_fn: Callable[[np.ndarray], np.ndarray] | None,
    x0: np.ndarray,
    cfg: OptimizerConfig | None = None,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OptimizeResult:
    """Damped Gauss-Newton descent on a least-squares objective.

    normal_fn returns the normal equations (J^T J, J^T r) of the least-squares
    part, loss approx ||r||^2 (+ non-LSQ terms covered by loss_fn and,
    linearly, by extra_grad_fn). Steps are accepted only when the *full* loss
    does not increase, so the accepted sequence is monotone even where the
    quadratic model is off.
    """
    cfg = cfg or OptimizerConfig()
    x = np.asarray(x0, dtype=float).copy()
    if project is not None:
        x = project(x)
    loss = float(loss_fn(x))
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss at iteration 0")

    lam = 1e-4
    stall = 0
    converged = False
    it = 0
    cached: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    for it in range(1, cfg.max_iterations + 1):
        if cached is None:
            jtj, jtr = normal_fn(x)
            if not (np.all(np.isfinite(jtj)) and np.all(np.isfinite(jtr))):
                raise NumericalError(f"non-finite normal equations at iteration {it}")
            rhs = -jtr
            if extra_grad_fn is not None:
                rhs -= 0.5 * extra_grad_fn(x)
            diag = np.diag(jtj).copy()
            diag[diag <= 0.0] = 1.0
            cached = (jtj, rhs, diag)
        jtj, rhs, diag = cached
        try:
            step = np.linalg.solve(jtj + lam * np.diag(diag), rhs)
        except np.linalg.LinAlgError:
            lam = max(lam, 1e-8) * 10.0
            stall += 1
            if stall >= cfg.patience:
                converged = True
                break
            continue
        x_new = x + step
        if project is not None:
            x_new = project(x_new)
        loss_new = float(loss_fn(x_new))
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
