"""Post-processing smoothers for retargeted motion.

Root trajectories solve (I + alpha * D2^T D2) t* = t per axis, where D2 is
the (n-2) x n second-order difference operator; the system is pentadiagonal
and symmetric positive definite, so a banded Cholesky factorization solves it
directly and deterministically. Joint rotations run through a sliding-window
filter instead of a learned de-jitter network: exponential maps are averaged
after re-expressing each neighbor within pi of the window center, and the
root quaternion uses a sign-aligned normalized mean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, check_settings, setting
from .motionio import MotionSequence
from .rotations import average_quaternions, row_dots

SOLVE_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class SmoothConfig:
    alpha: float = setting(1.0, ge=0)
    rotation_window: int = setting(5, ge=1, odd=True)

    def __post_init__(self):
        check_settings(self)


def second_diff_matrix(n: int) -> np.ndarray:
    """(n-2) x n matrix with rows [..., 1, -2, 1, ...]."""
    if n < 3:
        raise DataError(f"second differences need at least 3 frames, got {n}")
    mat = np.zeros((n - 2, n))
    idx = np.arange(n - 2)
    mat[idx, idx] = 1.0
    mat[idx, idx + 1] = -2.0
    mat[idx, idx + 2] = 1.0
    return mat


def _system_bands(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of I + alpha * D2^T D2 (main, first sub, second sub)."""
    main = np.zeros(n)
    main[0 : n - 2] += 1.0
    main[1 : n - 1] += 4.0
    main[2:n] += 1.0
    sub1 = np.zeros(n - 1)
    sub1[0 : n - 2] += -2.0
    sub1[1 : n - 1] += -2.0
    sub2 = np.ones(n - 2)
    return 1.0 + alpha * main, alpha * sub1, alpha * sub2


def _cholesky_pentadiagonal(main, sub1, sub2):
    """L L^T factorization of an SPD pentadiagonal matrix, lower bandwidth 2;
    a pivot that is not positive, NaN included, is a NumericalError."""
    n = len(main)
    l0 = np.zeros(n)
    l1 = np.zeros(n)  # L[i, i-1]
    l2 = np.zeros(n)  # L[i, i-2]
    for i in range(n):
        if i >= 2:
            l2[i] = sub2[i - 2] / l0[i - 2]
        if i >= 1:
            corr = l2[i] * l1[i - 1] if i >= 2 else 0.0
            l1[i] = (sub1[i - 1] - corr) / l0[i - 1]
        pivot = main[i] - l1[i] ** 2 - l2[i] ** 2
        if not pivot > 0:
            raise NumericalError(f"lost positive definiteness at row {i}")
        l0[i] = np.sqrt(pivot)
    return l0, l1, l2


def _solve_factored(l0, l1, l2, rhs):
    n = len(l0)
    b = np.atleast_2d(np.asarray(rhs, dtype=float).T).T.copy()
    # forward substitution L y = b
    for i in range(n):
        acc = b[i]
        if i >= 1:
            acc = acc - l1[i] * b[i - 1]
        if i >= 2:
            acc = acc - l2[i] * b[i - 2]
        b[i] = acc / l0[i]
    # back substitution L^T x = y
    for i in range(n - 1, -1, -1):
        acc = b[i]
        if i + 1 < n:
            acc = acc - l1[i + 1] * b[i + 1]
        if i + 2 < n:
            acc = acc - l2[i + 2] * b[i + 2]
        b[i] = acc / l0[i]
    return b.reshape(np.shape(rhs))


def solve_pentadiagonal_spd(
    main: np.ndarray, sub1: np.ndarray, sub2: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a symmetric positive definite pentadiagonal system by banded
    Cholesky (L L^T with lower bandwidth 2), plus iterative refinement with
    extended-precision residuals so stiff regularizations still meet the
    stated residual tolerance. rhs may be (n,) or (n, k)."""
    factors = _cholesky_pentadiagonal(main, sub1, sub2)
    x = _solve_factored(*factors, rhs)
    rhs_arr = np.asarray(rhs, dtype=float)
    scale = max(1.0, float(np.max(np.abs(rhs_arr))))
    for _ in range(4):
        residual = _banded_residual(main, sub1, sub2, x, rhs_arr)
        if np.max(np.abs(residual)) <= 1e-13 * scale:
            break
        x = x + _solve_factored(*factors, residual)
    return x


def _banded_matvec_any(main, sub1, sub2, x, dtype=float):
    x2 = np.atleast_2d(np.asarray(x, dtype=dtype).T).T
    main = main.astype(dtype)
    sub1 = sub1.astype(dtype)
    sub2 = sub2.astype(dtype)
    y = main[:, None] * x2
    y[:-1] += sub1[:, None] * x2[1:]
    y[1:] += sub1[:, None] * x2[:-1]
    y[:-2] += sub2[:, None] * x2[2:]
    y[2:] += sub2[:, None] * x2[:-2]
    return y.reshape(np.shape(x))


def _banded_residual(main, sub1, sub2, x, rhs):
    """rhs - A x evaluated in extended precision (cancellation-safe)."""
    ax = _banded_matvec_any(main, sub1, sub2, x, dtype=np.longdouble)
    return (np.asarray(rhs, dtype=np.longdouble) - ax).astype(float)


def smooth_root(traj: np.ndarray, alpha: float) -> np.ndarray:
    """Sobolev-regularized root trajectory: solve (I + alpha D2^T D2) t* = t.

    Axes solve independently. alpha = 0 returns the input exactly; fewer than
    3 frames returns the input unchanged with a warning (D2 is undefined).
    """
    traj = np.asarray(traj, dtype=float)
    if traj.ndim != 2:
        raise DataError(f"trajectory must be (n, axes), got {traj.shape}")
    if alpha < 0:
        raise DataError("alpha must be nonnegative")
    n = traj.shape[0]
    if n < 3:
        warnings.warn("trajectory shorter than 3 frames; returning it unchanged", stacklevel=2)
        return traj.copy()
    if alpha == 0:
        return traj.copy()
    # a huge alpha overflows the system or its solve to inf or NaN, which the
    # factorization or the residual check refuses, so it warns of nothing
    with np.errstate(over="ignore", invalid="ignore"):
        main, sub1, sub2 = _system_bands(n, alpha)
        out = solve_pentadiagonal_spd(main, sub1, sub2, traj)
        residual = float(np.max(np.abs(_banded_residual(main, sub1, sub2, out, traj))))
        # backward-error scaling: any double-precision solution carries a residual
        # of order ||A|| ||x|| eps, so the tolerance is relative to that scale
        norm_a = float(np.max(np.abs(main)) + 2 * np.max(np.abs(sub1)) + 2 * np.max(np.abs(sub2)))
        scale = norm_a * float(np.max(np.abs(out))) + float(np.max(np.abs(traj))) + 1.0
    if not residual <= SOLVE_RESIDUAL_TOL * scale < np.inf:
        raise NumericalError(f"banded solve residual {residual:.3g} exceeds tolerance")
    return out


_TURNS = 2.0 * np.pi * np.array([-2, -1, 1, 2])


def _unwrapped(e: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Each exp-map of e (..., 3) re-expressed as the representative of its
    rotation nearest the broadcast center: angle theta + 2 pi k along its
    axis, k in -2..2. e itself (k = 0) is kept unless another is strictly
    nearer, then the first of the nearest; rotations under 1e-12 rad stay
    as they are. Norms are the BLAS dot of np.linalg.norm (row_dots), so
    each vector comes out as it would alone."""
    theta = np.sqrt(row_dots(e, e))
    small = theta < 1e-12
    axis = e / np.where(small, 1.0, theta)[..., None]
    candidates = np.stack([e, *((theta + turn)[..., None] * axis for turn in _TURNS)])
    offsets = candidates - center
    nearest = np.argmin(np.sqrt(row_dots(offsets, offsets)), axis=0)
    best = np.take_along_axis(candidates, nearest[None, ..., None], axis=0)[0]
    return np.where(small[..., None], e, best)


def smooth_rotations(seq: MotionSequence, window: int) -> MotionSequence:
    """Sliding-window rotation filter (the stand-in for a learned de-jitterer).

    Per joint, exponential maps are averaged over the centered window after
    per-window angle unwrapping; near the sequence ends the window shrinks
    symmetrically (an asymmetric truncation would bias trending signals).
    The root quaternion is smoothed by a sign-aligned normalized mean. Object
    pose and contacts pass through untouched.
    """
    if window < 1 or window % 2 == 0:
        raise DataError("window must be an odd integer >= 1")
    frames = seq.frame_count
    if window > frames:
        raise DataError(f"window {window} exceeds sequence length {frames}")
    if window == 1:
        return seq
    half = window // 2

    frame = np.arange(frames)
    reaches = np.minimum(half, np.minimum(frame, frames - 1 - frame))
    joint_rots = np.empty_like(seq.joint_rots)
    for reach in range(half + 1):  # the frames whose windows reach as far, in one batch
        centers = np.flatnonzero(reaches == reach)
        windows = seq.joint_rots[centers[:, None] + np.arange(-reach, reach + 1)]  # (n, w, J-1, 3)
        joint_rots[centers] = _unwrapped(windows, seq.joint_rots[centers, None]).mean(axis=1)
    root_rot = np.empty_like(seq.root_rot)
    for t, reach in enumerate(reaches):
        root_rot[t] = average_quaternions(seq.root_rot[t - reach : t + reach + 1], ref_index=reach)

    return MotionSequence(
        fps=seq.fps,
        root_pos=seq.root_pos.copy(),
        root_rot=root_rot,
        joint_rots=joint_rots,
        obj_pos=seq.obj_pos.copy(),
        obj_rot=seq.obj_rot.copy(),
        contacts=None if seq.contacts is None else seq.contacts.copy(),
    )


def second_differences(traj: np.ndarray) -> np.ndarray:
    """The second differences D2 t of a trajectory, one row per interior frame."""
    traj = np.asarray(traj, dtype=float)
    return traj[:-2] - 2.0 * traj[1:-1] + traj[2:]


def second_difference_energy(traj: np.ndarray) -> np.ndarray:
    """Per-axis squared second-difference energy ||D2 t||^2 (length = axes)."""
    traj = np.asarray(traj, dtype=float)
    if traj.shape[0] < 3:
        return np.zeros(traj.shape[1] if traj.ndim == 2 else 1)
    d2 = second_differences(traj)
    return np.einsum("na,na->a", d2, d2)
