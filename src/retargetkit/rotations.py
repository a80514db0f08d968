"""Quaternion and exponential-map rotation helpers.

Quaternions are stored as (w, x, y, z). Exponential maps are 3-vectors whose
direction is the rotation axis and whose magnitude is the angle in radians.

The quaternion-to-matrix conversion uses the plain polynomial formula, valid
for unit quaternions. Rotations are differentiated on the manifold, through
the SO(3) left Jacobian that `rodrigues` returns with each rotation, never
through raw quaternion components.
"""

from __future__ import annotations

import numpy as np


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v over the last axis of (..., 3) arrays, each the BLAS dot that a
    1-D u @ v and np.linalg.norm take, so batched norms match per-vector
    ones bit for bit."""
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b, both (w, x, y, z)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis / n])


def quat_from_expmap(e: np.ndarray) -> np.ndarray:
    e = np.asarray(e, dtype=float)
    angle = np.linalg.norm(e)
    if angle < 1e-12:
        return np.array([1.0, *(0.5 * e)]) / np.linalg.norm([1.0, *(0.5 * e)])
    return quat_from_axis_angle(e, angle)


def quat_log_relative(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation vector of conj(a) * b, over the last axis of (..., 4) inputs.

    The relative quaternion is sign-canonicalized (w >= 0) before the log map,
    so negating either input leaves the result unchanged and the angle lies in
    [0, pi]. Equal or opposite inputs give exactly zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, av = a[..., :1], -a[..., 1:]
    bw, bv = b[..., :1], b[..., 1:]
    w = aw * bw - np.sum(av * bv, axis=-1, keepdims=True)
    v = aw * bv + bw * av + np.cross(av, bv)
    flip = np.where(w < 0.0, -1.0, 1.0)
    w, v = flip * w, flip * v
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    axis = n > 0.0
    # 2 atan2(n, w) / n, whose limit as n -> 0 is 2 / w
    scale = np.where(axis, 2.0 * np.arctan2(n, w) / np.where(axis, n, 1.0), 2.0 / np.where(axis, 1.0, w))
    return scale * v


# _SKEW_BASIS[k] is the flattened cross-product matrix of the k-th basis vector
_SKEW_BASIS = np.array([[0.0, 0, 0, 0, 0, -1, 0, 1, 0], [0, 0, 1, 0, 0, 0, -1, 0, 0], [0, -1, 0, 1, 0, 0, 0, 0, 0]])


def skew(v: np.ndarray) -> np.ndarray:
    """(..., 3, 3) cross-product matrices [v]x of (..., 3) vectors."""
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_BASIS).reshape(v.shape[:-1] + (3, 3))


def quat_to_mat(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of (..., 4) (near-)unit quaternions via the polynomial
    formula, I + 2 w [v]x + 2 [v]x^2 for q = (w, v)."""
    q = np.asarray(q, dtype=float)
    k = skew(q[..., 1:])
    return np.eye(3) + 2.0 * (q[..., 0, None, None] * k + k @ k)


def quat_left_matrix(q: np.ndarray) -> np.ndarray:
    """(4, 4) matrix L(q) with L(q) @ p = q * p (Hamilton product)."""
    w, x, y, z = q
    return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]], dtype=float)


def rodrigues(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrices exp([e]x) and SO(3) left Jacobians J_l(e) of (..., 3)
    rotation vectors, in one batched pass.

    With K = [e]x and t = |e|: R = I + a K + b K^2, J_l = I + b K + c K^2 for
    a = sin(t)/t, b = 2 (sin(t/2)/t)^2 and c = (1 - a)/t^2, whose round-off
    in c K^2 stays absolute at small t. exp(e + d) = exp(J_l(e) d) exp(e) to
    first order, and J_r(e) = J_l(e)^T (Sola et al., "A micro Lie theory for
    state estimation in robotics", 2018).
    """
    e = np.asarray(e, dtype=float)
    t2 = np.einsum("...i,...i->...", e, e)[..., None, None]
    turned = t2 > 0.0
    t2 = np.where(turned, t2, 1.0)
    t = np.sqrt(t2)
    a = np.where(turned, np.sin(t) / t, 1.0)
    half = np.where(turned, np.sin(0.5 * t) / t, 0.5)
    b = 2.0 * half * half
    c = np.where(turned, (1.0 - a) / t2, 1.0 / 6.0)
    k = skew(e)
    k2 = k @ k
    eye = np.eye(3)
    return eye + a * k + b * k2, eye + b * k + c * k2


def average_quaternions(quats: np.ndarray, ref_index: int = 0) -> np.ndarray:
    """Normalized quaternion mean, sign-aligned to quats[ref_index].

    Adequate for the narrow orientation spreads seen inside a smoothing window;
    not a substitute for the eigenvector method on widely spread inputs.
    """
    quats = np.asarray(quats, dtype=float)
    ref = quats[ref_index]
    signs = np.where(quats @ ref < 0.0, -1.0, 1.0)
    mean = (signs[:, None] * quats).sum(axis=0) / len(quats)
    return quat_normalize(mean)
