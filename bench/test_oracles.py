"""The benchmark's oracles on small cases with known answers.

Runs under pytest, and ``run.py`` calls ``run_all`` on every benchmark run, so
a wrong oracle cannot pass a wrong program.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

RZ90 = (math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))


def test_rotations():
    assert np.allclose(oracles.quat_to_mat(RZ90) @ (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert np.allclose(oracles.expmap_to_mat((0.0, 0.0, math.pi / 2)), oracles.quat_to_mat(RZ90))
    assert np.allclose(oracles.expmap_to_mat((0.0, 0.0, 0.0)), np.eye(3))


def test_fk_chain():
    # root at (1, 2, 3) turned 90 deg about z; joint 1 one unit along x;
    # joint 2 turns another 90 deg and sits 2 * (0, 1, 0) further
    parents = np.array([-1, 0, 1])
    offsets = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    joint_rots = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, math.pi / 2]])
    pos = oracles.fk_frames(parents, offsets, np.array([1.0, 1.0, 2.0]), (1.0, 2.0, 3.0), RZ90, joint_rots)
    assert pos.shape == (1, 3, 3)
    assert np.allclose(pos[0], [[1.0, 2.0, 3.0], [1.0, 3.0, 3.0], [1.0, 1.0, 3.0]])


def test_scale_fit():
    parents = np.array([-1, 0, 1, 1])
    offsets = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    target = np.array([[5.0, 5.0, 5.0], [7.0, 5.0, 5.0], [7.0, 5.5, 5.0], [7.0, 5.0, 8.0]])
    scales, rms = oracles.tpose_scale_fit(parents, offsets, target)
    assert np.allclose(scales[1:], (2.0, 0.5, 3.0)) and rms < 1e-12
    # unreachable: the only bone points along x, the target along y
    scales, rms = oracles.tpose_scale_fit(np.array([-1, 0]), np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                                          np.array([[0.0, 0, 0], [0.0, 1.0, 0]]))
    assert abs(scales[1]) < 1e-12 and abs(rms - math.sqrt(0.5)) < 1e-12


def test_laplacians():
    tet = np.array([[[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]])
    lap = oracles.laplacians(tet)[0]
    assert np.allclose(lap, [[-1, -1, -1], [3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    assert np.allclose(lap.sum(axis=0), 0.0)
    # moving one corner by d changes its row by 3d and the others by -d
    coords = tet[0]
    mesh = (coords, np.array([1]), np.array([0]), np.array([[0, 1, 2, 3]]))
    d = np.array([0.0, 0.3, 0.4])
    target = (coords[1] + d)[None, None, :]
    assert abs(oracles.mean_laplacian_residual([mesh, None], target) - math.sqrt(12.0) * 0.5) < 1e-12


def test_circumsphere_check():
    tri = np.array([[1.0, 0, 0], [-0.5, math.sqrt(3) / 2, 0], [-0.5, -math.sqrt(3) / 2, 0]])
    # bipyramid with apexes on the triangle's circumsphere: cospherical, valid
    points = np.vstack([tri, [[0.0, 0, 1], [0.0, 0, -1]]])
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4]])
    assert len(oracles.circumsphere_violations(points, tets)) == 0
    # flattened apexes: each sphere through the big triangle swallows the other apex
    flat = np.vstack([tri, [[0.0, 0, 0.2], [0.0, 0, -0.2]]])
    assert list(oracles.circumsphere_violations(flat, tets)) == [0, 1]
    # a point planted at a tetrahedron's circumcenter
    corners = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1], [0.5, 0.5, 0.5]])
    assert list(oracles.circumsphere_violations(corners, np.array([[0, 1, 2, 3]]))) == [0]
    assert len(oracles.circumsphere_violations(corners[:4], np.array([[0, 1, 2, 3]]))) == 0
    # a flat tetrahedron has no finite circumsphere
    assert list(oracles.circumsphere_violations(tri[[0, 1, 2, 0]] + 0.0, np.array([[0, 1, 2, 3]]))) == [0]


def test_filter():
    kept, history = oracles.mean_length_filter({"a": [10.0], "b": [10.0], "c": [100.0]})
    assert kept == {"c"} and history == [40.0, 100.0]
    kept, history = oracles.mean_length_filter({"a": [4.0, 6.0], "b": [5.0]})
    assert kept == {"a", "b"} and history == [5.0]


def test_schedule():
    gates = [oracles.dagger_gate(t, 5.0, 10.0) for t in (0, 5, 10, 15, 20)]
    assert gates == [1.0, 1.0, 0.5, 0.0, 0.0]
    # Binomial(4, 1/2): P(X = 0) = P(X = 4) = 1/16
    assert oracles.binomial_interval(4, 0.5, tail=0.07) == (1, 3)
    assert oracles.binomial_interval(4, 0.5, tail=0.05) == (0, 4)
    assert oracles.binomial_interval(10, 0.0) == (0, 0)
    assert oracles.binomial_interval(10, 1.0) == (10, 10)


def run_all() -> list[tuple[str, BaseException]]:
    """Run every test above; returns (name, exception) for each that failed."""
    failed = []
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                failed.append((name, exc))
    return failed


if __name__ == "__main__":
    problems = run_all()
    for name, exc in problems:
        print(f"FAIL {name}: {exc!r}")
    print("oracles: all pass" if not problems else f"oracles: {len(problems)} failed")
    raise SystemExit(1 if problems else 0)
