"""Quaternion and exponential-map rotation helpers.

Quaternions are stored as (w, x, y, z). Exponential maps are 3-vectors whose
direction is the rotation axis and whose magnitude is the angle in radians.

The quaternion-to-matrix conversion uses the plain polynomial formula (valid
for unit quaternions); its partial derivatives below differentiate that same
polynomial, so finite differences on raw quaternion components agree with the
analytic Jacobian.
"""

from __future__ import annotations

import numpy as np

# Below this angle the Rodrigues coefficients switch to their Taylor series.
_SMALL_ANGLE = 1e-4


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


def quat_to_mat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a (near-)unit quaternion via the polynomial formula."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_to_mat_jac(q: np.ndarray) -> np.ndarray:
    """(4, 3, 3) partials of quat_to_mat with respect to w, x, y, z."""
    w, x, y, z = q
    dw = np.array([[0, -2 * z, 2 * y], [2 * z, 0, -2 * x], [-2 * y, 2 * x, 0]], dtype=float)
    dx = np.array([[0, 2 * y, 2 * z], [2 * y, -4 * x, -2 * w], [2 * z, 2 * w, -4 * x]], dtype=float)
    dy = np.array([[-4 * y, 2 * x, 2 * w], [2 * x, 0, 2 * z], [-2 * w, 2 * z, -4 * y]], dtype=float)
    dz = np.array([[-4 * z, -2 * w, 2 * x], [2 * w, -4 * z, 2 * y], [2 * x, 2 * y, 0]], dtype=float)
    return np.stack([dw, dx, dy, dz])


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]], dtype=float)


_BASIS_SKEWS = np.stack([_skew(np.eye(3)[i]) for i in range(3)])


def _rodrigues_coeffs(theta: float) -> tuple[float, float]:
    # a = sin(t)/t, b = (1 - cos(t))/t^2, with Taylor fallbacks near zero.
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0, 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    return np.sin(theta) / theta, (1.0 - np.cos(theta)) / (theta * theta)


def expmap_to_mat(e: np.ndarray) -> np.ndarray:
    """Rodrigues rotation matrix of an exponential-map vector."""
    e = np.asarray(e, dtype=float)
    theta = np.linalg.norm(e)
    a, b = _rodrigues_coeffs(theta)
    k = _skew(e)
    return np.eye(3) + a * k + b * (k @ k)


def expmap_to_mat_jac(e: np.ndarray) -> np.ndarray:
    """(3, 3, 3) partials of expmap_to_mat with respect to the three components.

    Differentiates R = I + a(t) K + b(t) K^2 directly:
      dR/de_i = c1 e_i K + a E_i + c2 e_i K^2 + b (E_i K + K E_i)
    with c1 = a'(t)/t and c2 = b'(t)/t, E_i the skew of the i-th basis vector.
    """
    e = np.asarray(e, dtype=float)
    theta = np.linalg.norm(e)
    a, b = _rodrigues_coeffs(theta)
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        c1 = -1.0 / 3.0 + t2 / 30.0
        c2 = -1.0 / 12.0 + t2 / 180.0
    else:
        s, c = np.sin(theta), np.cos(theta)
        c1 = (theta * c - s) / theta**3
        c2 = (theta * s - 2.0 * (1.0 - c)) / theta**4
    k = _skew(e)
    k2 = k @ k
    out = np.empty((3, 3, 3))
    for i in range(3):
        ei = _BASIS_SKEWS[i]
        out[i] = c1 * e[i] * k + a * ei + c2 * e[i] * k2 + b * (ei @ k + k @ ei)
    return out


def average_quaternions(
    quats: np.ndarray, weights: np.ndarray | None = None, ref_index: int = 0
) -> np.ndarray:
    """Normalized weighted quaternion mean, sign-aligned to quats[ref_index].

    Adequate for the narrow orientation spreads seen inside a smoothing window;
    not a substitute for the eigenvector method on widely spread inputs.
    """
    quats = np.asarray(quats, dtype=float)
    if weights is None:
        weights = np.ones(len(quats))
    weights = np.asarray(weights, dtype=float)
    ref = quats[ref_index]
    signs = np.where(quats @ ref < 0.0, -1.0, 1.0)
    mean = (weights[:, None] * signs[:, None] * quats).sum(axis=0) / weights.sum()
    return quat_normalize(mean)
