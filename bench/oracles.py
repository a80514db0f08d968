"""Reference computations the benchmark checks the program against.

Each one is written from the method's definition with plain numpy and shares
no code with the package, so a fault in the package cannot pass by repeating
itself in its check. ``test_oracles.py`` pins every oracle to small cases
with known answers.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# rotations and forward kinematics


def quat_to_mat(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of unit quaternions (..., 4) wxyz -> (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            np.stack([w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z], -1),
        ],
        -2,
    )


def expmap_to_mat(e: np.ndarray) -> np.ndarray:
    """Rodrigues' formula on exponential maps (..., 3) -> (..., 3, 3)."""
    e = np.asarray(e, dtype=float)
    theta = np.linalg.norm(e, axis=-1)
    safe = np.where(theta > 0.0, theta, 1.0)
    k = e / safe[..., None]
    kx, ky, kz = np.moveaxis(k, -1, 0)
    zero = np.zeros_like(kx)
    skew = np.stack(
        [np.stack([zero, -kz, ky], -1), np.stack([kz, zero, -kx], -1), np.stack([-ky, kx, zero], -1)],
        -2,
    )
    s = np.sin(theta)[..., None, None]
    c = np.cos(theta)[..., None, None]
    return np.eye(3) + s * skew + (1.0 - c) * (skew @ skew)


def fk_frames(parents, offsets, scales, root_pos, root_rot, joint_rots) -> np.ndarray:
    """World joint positions (T, J, 3) of T frames.

    The root frame is Translate(root_pos) Rotate(root_rot); joint i is placed
    at parent position + parent world rotation @ Rotate(expmap_i) @ (scale_i *
    offset_i), and its world rotation is parent rotation @ Rotate(expmap_i).
    """
    root_pos = np.atleast_2d(np.asarray(root_pos, dtype=float))
    frames = len(root_pos)
    joint_rots = np.asarray(joint_rots, dtype=float).reshape(frames, -1, 3)
    j = len(parents)
    scaled = np.asarray(scales, dtype=float)[:, None] * np.asarray(offsets, dtype=float)
    local = expmap_to_mat(joint_rots)  # (T, J-1, 3, 3)
    rot = np.empty((frames, j, 3, 3))
    pos = np.empty((frames, j, 3))
    rot[:, 0] = quat_to_mat(np.atleast_2d(root_rot))
    pos[:, 0] = root_pos
    for i in range(1, j):
        p = parents[i]
        rot[:, i] = rot[:, p] @ local[:, i - 1]
        pos[:, i] = pos[:, p] + rot[:, i] @ scaled[i]
    return pos


# ---------------------------------------------------------------------------
# bone-scale fit


def tpose_scale_fit(parents, offsets, target_joints: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares bone scales that put the T-pose joints on the targets.

    In the T-pose every world rotation is the identity, so joint i sits at the
    root plus the sum of scale_k * offset_k over the bones k on its chain:
    positions are linear in the scales. Returns the scales (the root's scale
    moves nothing and comes back 0 from the minimum-norm solve) and the RMS
    joint error in meters, with the root pinned to the target root.
    """
    target = np.asarray(target_joints, dtype=float)
    j = len(parents)
    a = np.zeros((j, 3, j))
    for i in range(1, j):
        a[i] = a[parents[i]]
        a[i, :, i] += offsets[i]
    a = a.reshape(3 * j, j)
    b = (target - target[0]).ravel()
    scales, *_ = np.linalg.lstsq(a, b, rcond=None)
    r = a @ scales - b
    return scales, float(np.sqrt(r @ r / j))


# ---------------------------------------------------------------------------
# interact-mesh geometry


def laplacians(tet_points: np.ndarray) -> np.ndarray:
    """Laplacian coordinates (M, 4, 3): row i is 4 p_i minus the corner sum."""
    p = np.asarray(tet_points, dtype=float)
    return 4.0 * p - p.sum(axis=1, keepdims=True)


def mean_laplacian_residual(meshes, target_joints: np.ndarray) -> float:
    """Mean per-tetrahedron Frobenius norm of L(source tet) - L(target tet).

    ``meshes[t]`` is (coordinates, agent_rows, agent_joints, tetrahedra) of
    frame t's source mesh; the target tetrahedron swaps the agent rows for the
    target's joints at frame t. Frames without a mesh are None and skipped.
    """
    values = []
    for t, mesh in enumerate(meshes):
        if mesh is None:
            continue
        coords, rows, joints, tets = mesh
        target = coords.copy()
        target[rows] = target_joints[t][joints]
        diff = laplacians(target[tets]) - laplacians(coords[tets])
        values.append(np.sqrt(np.einsum("mij,mij->m", diff, diff)))
    return float(np.concatenate(values).mean())


def circumsphere_violations(points: np.ndarray, tets: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    """Indices of tetrahedra whose circumsphere strictly holds another point.

    A point counts as inside when it lies deeper than rel_tol times the radius;
    a flat tetrahedron (no finite circumsphere) is a violation by itself.
    """
    points = np.asarray(points, dtype=float)
    tets = np.asarray(tets, dtype=int).reshape(-1, 4)
    p = points[tets]
    rel = p[:, 1:] - p[:, :1]
    det = np.linalg.det(rel)
    bad = np.abs(det) <= 1e-18 * np.abs(rel).max(axis=(1, 2)) ** 3
    rhs = 0.5 * np.einsum("kij,kij->ki", rel, rel)
    ok = ~bad
    centers = np.zeros((len(tets), 3))
    centers[ok] = p[ok, 0] + np.linalg.solve(rel[ok], rhs[ok][..., None])[..., 0]
    radius = np.linalg.norm(centers - p[:, 0], axis=1)
    dist = np.linalg.norm(points[None, :, :] - centers[:, None, :], axis=2)
    inside = radius[:, None] - dist > rel_tol * radius[:, None]
    inside[np.arange(len(tets))[:, None], tets] = False
    return np.nonzero(bad | (ok & inside.any(axis=1)))[0]


# ---------------------------------------------------------------------------
# curation and schedule


def mean_length_filter(lengths: dict[str, list[float]]) -> tuple[set[str], list[float]]:
    """Drop clips whose mean episode length is strictly below the mean of the
    retained clips' means, until nothing moves. Returns (retained ids, the
    mean before each pass and after the last)."""
    means = {k: sum(v) / len(v) for k, v in lengths.items()}
    kept = set(means)
    history = [sum(means.values()) / len(means)]
    while True:
        sigma = sum(means[k] for k in kept) / len(kept)
        drop = {k for k in kept if means[k] < sigma}
        if not drop:
            return kept, history
        kept -= drop
        history.append(sum(means[k] for k in kept) / len(kept))


def dagger_gate(t: float, kappa: float, epsilon: float) -> float:
    """Teacher probability at round t: 1 through kappa, then linear to 0."""
    return min(1.0, max(0.0, 1.0 - (t - kappa) / epsilon))


def binomial_interval(n: int, p: float, tail: float = 1e-10) -> tuple[int, int]:
    """Counts (lo, hi) with P(X < lo) <= tail and P(X > hi) <= tail for
    X ~ Binomial(n, p), from the exact probability mass function."""
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return n, n
    logs = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(n + 1)
    ]
    pmf = [math.exp(v) for v in logs]
    lo, acc = 0, 0.0
    while lo < n and acc + pmf[lo] <= tail:
        acc += pmf[lo]
        lo += 1
    hi, acc = n, 0.0
    while hi > 0 and acc + pmf[hi] <= tail:
        acc += pmf[hi]
        hi -= 1
    return lo, hi
