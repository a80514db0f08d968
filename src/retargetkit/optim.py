"""Adaptive-moment gradient descent and damped Gauss-Newton, both with
monotone step acceptance.

Shape fitting descends through the Adam loop, per-frame retargeting through
Gauss-Newton by default. A proposed step is accepted only if it does not
increase the loss; rejected steps halve the learning rate (Adam) or raise the
damping (Gauss-Newton), so the accepted loss sequence is non-increasing by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, NumericalError


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "adam"  # "adam" | "gauss_newton"
    learning_rate: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_iterations: int = 500
    # Early stop once the relative improvement stays below improvement_tol
    # for `patience` consecutive iterations (rejected steps count as stalls).
    improvement_tol: float = 1e-10
    patience: int = 20

    def __post_init__(self):
        if self.method not in ("adam", "gauss_newton"):
            raise DataError(f"unknown optimizer method {self.method!r}")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise DataError("betas must lie in [0, 1)")
        if self.max_iterations < 1:
            raise DataError("max_iterations must be >= 1")


@dataclass(frozen=True)
class OptimizeResult:
    x: np.ndarray
    loss: float
    iterations: int
    converged: bool


def adam_minimize(
    loss_fn: Callable[[np.ndarray], float],
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    cfg: OptimizerConfig | None = None,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OptimizeResult:
    """Minimize loss_fn starting from x0.

    `project`, when given, maps a proposed iterate back onto the feasible set
    (clamping, renormalization); it is applied before the acceptance check so
    every accepted iterate is feasible.
    """
    cfg = cfg or OptimizerConfig()
    x = np.asarray(x0, dtype=float).copy()
    if project is not None:
        x = project(x)
    loss = float(loss_fn(x))
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss at iteration 0")

    m = np.zeros_like(x)
    v = np.zeros_like(x)
    lr = cfg.learning_rate
    stall = 0
    converged = False
    it = 0
    g: np.ndarray | None = None  # valid while x is unchanged (rejected steps)
    for it in range(1, cfg.max_iterations + 1):
        if g is None:
            g = np.asarray(grad_fn(x), dtype=float)
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient at iteration {it}")
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        m_hat = m / (1.0 - cfg.beta1**it)
        v_hat = v / (1.0 - cfg.beta2**it)
        x_new = x - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        if project is not None:
            x_new = project(x_new)
        loss_new = float(loss_fn(x_new))
        if not np.isfinite(loss_new):
            raise NumericalError(f"non-finite loss at iteration {it}")
        if loss_new <= loss:
            rel = (loss - loss_new) / max(abs(loss), 1e-300)
            stall = stall + 1 if rel < cfg.improvement_tol else 0
            x, loss = x_new, loss_new
            lr = min(lr * 2.0, cfg.learning_rate)
            g = None
        else:
            # Stale momentum can point uphill persistently; dropping the moment
            # estimates makes the retry follow the raw gradient, which descends
            # once the halved step is small enough. x is unchanged, so the
            # cached gradient stays valid.
            lr *= 0.5
            m[:] = 0.0
            v[:] = 0.0
            stall += 1
        if stall >= cfg.patience:
            converged = True
            break
    return OptimizeResult(x=x, loss=loss, iterations=it, converged=converged)


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
            x, loss = x_new, loss_new
            lam = max(lam / 3.0, 1e-12)
            cached = None
        else:
            lam = max(lam, 1e-12) * 4.0
            stall += 1
        if stall >= cfg.patience:
            converged = True
            break
    return OptimizeResult(x=x, loss=loss, iterations=it, converged=converged)
