import itertools

import numpy as np
import pytest

from retargetkit import interactmesh
from retargetkit.errors import DataError, EmptyInteractMeshError
from retargetkit.interactmesh import (
    RetentionRule,
    build_interact_mesh,
    delaunay3d,
    farthest_point_subsample,
    laplacian,
    laplacians,
    tet_volumes,
)
from retargetkit.rotations import expmap_to_mat

from conftest import circumsphere, empty_circumsphere_ok


# ---------------------------------------------------------------------------
# oracles


def brute_hull_volume(points):
    """Convex-hull volume by the divergence theorem over brute-forced hull faces.

    Works about the centroid: the theorem is translation-invariant on closed
    surfaces, and far-from-origin clouds would otherwise lose precision.
    """
    points = np.asarray(points, dtype=float)
    points = points - points.mean(axis=0)
    n = len(points)
    volume = 0.0
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = points[i], points[j], points[k]
        normal = np.cross(b - a, c - a)
        if np.linalg.norm(normal) < 1e-14:
            continue
        side = (points - a) @ normal
        others = np.delete(side, [i, j, k])
        if np.all(others <= 1e-12):
            va, vb, vc = a, b, c
        elif np.all(others >= -1e-12):
            va, vb, vc = a, c, b
        else:
            continue
        volume += va @ np.cross(vb, vc) / 6.0
    return volume


def brute_delaunay_tets(points):
    """All 4-point subsets whose circumsphere is empty (general position)."""
    out = []
    for combo in itertools.combinations(range(len(points)), 4):
        p = points[list(combo)]
        if abs(np.linalg.det(p[1:] - p[0])) < 1e-12:
            continue
        center, radius = circumsphere(p)
        d = np.linalg.norm(points - center, axis=1)
        inside = (radius - d) / radius > 1e-9
        inside[list(combo)] = False
        if not np.any(inside):
            out.append(tuple(sorted(combo)))
    return sorted(out)


# ---------------------------------------------------------------------------
# laplacian coordinates


class TestLaplacian:
    def test_regular_tetrahedron_centered(self):
        # with the centroid at the origin, row i reduces to 4 * p_i
        p = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        np.testing.assert_allclose(laplacian(p), 4.0 * p, atol=1e-12)

    def test_translation_invariance(self, rng):
        p = rng.normal(size=(4, 3))
        c = rng.uniform(-1e3, 1e3, size=3)
        np.testing.assert_allclose(laplacian(p + c), laplacian(p), atol=1e-12)

    def test_rotation_equivariance(self, rng):
        p = rng.normal(size=(4, 3))
        r = expmap_to_mat(rng.uniform(-np.pi, np.pi, size=3))
        np.testing.assert_allclose(laplacian(p @ r.T), laplacian(p) @ r.T, atol=1e-9)

    def test_coincident_points_zero(self):
        p = np.tile([0.3, -0.2, 0.7], (4, 1))
        np.testing.assert_allclose(laplacian(p), 0.0, atol=1e-15)

    def test_rows_sum_to_zero(self, rng):
        for _ in range(50):
            p = rng.normal(size=(4, 3)) * 10
            np.testing.assert_allclose(laplacian(p).sum(axis=0), 0.0, atol=1e-9)

    def test_batched_matches_single(self, rng):
        p = rng.normal(size=(7, 4, 3))
        batch = laplacians(p)
        for m in range(7):
            np.testing.assert_allclose(batch[m], laplacian(p[m]), atol=1e-15)


# ---------------------------------------------------------------------------
# delaunay


class TestDelaunay3d:
    def test_single_tetrahedron(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        tets = delaunay3d(pts)
        assert tets.shape == (1, 4)
        assert sorted(tets[0]) == [0, 1, 2, 3]

    def test_triangular_bipyramid(self):
        # oracle: brute-force circumsphere test over all C(5, 4) candidates;
        # apexes taller than the equator circumradius so the two pyramids
        # sharing the equatorial face are the Delaunay configuration
        pts = np.array(
            [
                [1.0, 0.0, 0.0],
                [-0.5, np.sqrt(3) / 2, 0.0],
                [-0.5, -np.sqrt(3) / 2, 0.0],
                [0.0, 0.0, 1.3],
                [0.0, 0.0, -1.3],
            ]
        )
        expected = brute_delaunay_tets(pts)
        assert expected == [(0, 1, 2, 3), (0, 1, 2, 4)]
        tets = delaunay3d(pts)
        got = sorted(tuple(sorted(t)) for t in tets)
        assert got == expected
        assert empty_circumsphere_ok(pts, tets)

    def test_coplanar_rejected(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        with pytest.raises(DataError, match="coplanar"):
            delaunay3d(pts)

    def test_duplicates_merged_with_warning(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)
        with pytest.warns(UserWarning, match="duplicate"):
            tets = delaunay3d(pts)
        assert tets.max() <= 3  # duplicate resolves to first occurrence

    def test_duplicate_merge_is_greedy_in_input_order(self, rng):
        # a chain 0.6 tolerance apart: each point is a duplicate of its
        # predecessor, but a dropped point absorbs nothing, so every other
        # point survives; the loop below is the reference
        base = rng.uniform(-1, 1, size=(6, 3))
        step = 0.6 * interactmesh.DUPLICATE_TOL
        chain = base[0] + np.outer(np.arange(5), [step, 0.0, 0.0])
        pts = np.vstack([base[:3], chain, base[3:], base[1:2]])
        keep = []
        for i, p in enumerate(pts):
            if all(np.linalg.norm(p - pts[k]) >= interactmesh.DUPLICATE_TOL for k in keep):
                keep.append(i)
        with pytest.warns(UserWarning, match="duplicate"):
            unique, index_map = interactmesh._merge_duplicates(pts)
        np.testing.assert_array_equal(index_map, keep)
        np.testing.assert_array_equal(unique, pts[keep])

    def test_too_few_points(self):
        with pytest.raises(DataError, match="4"):
            delaunay3d(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]))

    def test_duplicates_below_four_distinct(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 1, 0]])
        with pytest.warns(UserWarning, match="duplicate"):
            with pytest.raises(DataError, match="4 distinct"):
                delaunay3d(pts)

    def test_random_clouds_empty_circumsphere(self, rng):
        for _ in range(25):
            n = int(rng.integers(8, 21))
            pts = rng.uniform(-1, 1, size=(n, 3))
            tets = delaunay3d(pts)
            assert len(tets) > 0
            assert empty_circumsphere_ok(pts, tets)

    def test_volume_covers_convex_hull(self, rng):
        # hull-volume oracle via divergence theorem on small instances
        for _ in range(10):
            n = int(rng.integers(8, 13))
            pts = rng.uniform(-1, 1, size=(n, 3))
            tets = delaunay3d(pts)
            total = np.sum(np.abs(tet_volumes(pts, tets)))
            hull = brute_hull_volume(pts)
            assert abs(total - hull) / hull < 1e-6

    def test_deterministic(self, rng):
        pts = rng.uniform(-1, 1, size=(15, 3))
        first = delaunay3d(pts)
        second = delaunay3d(pts.copy())
        np.testing.assert_array_equal(first, second)


@pytest.fixture
def fresh_builds(monkeypatch):
    """Counts the Bowyer-Watson runs behind delaunay3d calls."""
    calls = []
    build = interactmesh._bowyer_watson

    def counted(points, margin):
        calls.append(len(points))
        return build(points, margin)

    monkeypatch.setattr(interactmesh, "_bowyer_watson", counted)
    return calls


class TestTopologyHint:
    def test_valid_hint_returned_without_rebuild(self, rng, fresh_builds):
        pts = rng.uniform(-1, 1, size=(30, 3))
        tets = delaunay3d(pts)
        moved = pts + rng.normal(scale=1e-6, size=pts.shape)
        assert len(fresh_builds) == 1
        np.testing.assert_array_equal(delaunay3d(moved, hint=tets), tets)
        assert len(fresh_builds) == 1
        np.testing.assert_array_equal(delaunay3d(moved), tets)

    def test_hint_with_point_inside_a_circumsphere_rejected(self, rng, fresh_builds):
        pts = rng.uniform(-1, 1, size=(30, 3))
        tets = delaunay3d(pts)
        # move a point that is no corner of tets[0] onto that tetrahedron's centroid
        outsider = next(i for i in range(len(pts)) if i not in tets[0])
        planted = pts.copy()
        planted[outsider] = pts[tets[0]].mean(axis=0)
        assert not empty_circumsphere_ok(planted, tets)
        got = delaunay3d(planted, hint=tets)
        assert len(fresh_builds) == 2
        np.testing.assert_array_equal(got, delaunay3d(planted))
        assert empty_circumsphere_ok(planted, got)

    def test_hint_for_a_different_point_count_ignored(self, rng, fresh_builds):
        pts = rng.uniform(-1, 1, size=(20, 3))
        tets = delaunay3d(pts)
        fewer, more = pts[:-1], np.vstack([pts, [[0.0, 0.0, 0.0]]])
        np.testing.assert_array_equal(delaunay3d(fewer, hint=tets), delaunay3d(fewer))
        np.testing.assert_array_equal(delaunay3d(more, hint=tets), delaunay3d(more))
        assert len(fresh_builds) == 5

    @pytest.mark.parametrize(
        "hint",
        [np.zeros((0, 4), dtype=int), np.zeros((3, 3), dtype=int), np.full((2, 4), 0.5)],
        ids=["empty", "three-columns", "float"],
    )
    def test_malformed_hint_ignored(self, rng, fresh_builds, hint):
        pts = rng.uniform(-1, 1, size=(10, 3))
        np.testing.assert_array_equal(delaunay3d(pts, hint=hint), delaunay3d(pts))
        assert len(fresh_builds) == 2

    def test_repeated_tetrahedron_rejected(self, rng, fresh_builds):
        pts = rng.uniform(-1, 1, size=(15, 3))
        tets = delaunay3d(pts)
        np.testing.assert_array_equal(delaunay3d(pts, hint=np.vstack([tets, tets[:1]])), tets)
        assert len(fresh_builds) == 2


# ---------------------------------------------------------------------------
# interact mesh


class TestBuildInteractMesh:
    def test_minimal_two_one_one_pattern(self):
        joints_a = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
        joints_b = np.array([[0.0, 0.3, 0.0]])
        obj = np.array([[0.0, 0.0, 0.3]])
        mesh = build_interact_mesh(joints_a, joints_b, obj)
        assert mesh.tet_count == 1
        kinds = sorted(mesh.points.provenance[i][0] for i in mesh.tetrahedra[0])
        assert kinds == ["A", "A", "B", "obj"]

    def test_far_agents_gated_out(self):
        joints_a = np.array([[5.0, 0.0, 0.0], [6.0, 0.0, 0.0]])
        joints_b = np.array([[5.0, 1.0, 0.0]])
        obj = np.array([[0.0, 0.0, 1.0]])
        with pytest.raises(EmptyInteractMeshError, match="proximity"):
            build_interact_mesh(joints_a, joints_b, obj, RetentionRule(proximity_gate=0.5))

    def test_hoi_mode_single_agent(self):
        joints_a = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.3, 0.0]])
        obj = np.array([[0.0, 0.0, 0.3]])
        mesh = build_interact_mesh(joints_a, None, obj)
        assert mesh.tet_count == 1

    def test_reference_laplacians_match(self, rng):
        joints_a = rng.uniform(-0.3, 0.3, size=(5, 3))
        joints_b = rng.uniform(-0.3, 0.3, size=(4, 3)) + (0.4, 0, 0)
        obj = rng.uniform(-0.2, 0.2, size=(6, 3)) + (0.2, 0.2, 0)
        mesh = build_interact_mesh(joints_a, joints_b, obj, RetentionRule(mode="loose"))
        for m, tet in enumerate(mesh.tetrahedra):
            np.testing.assert_allclose(
                mesh.reference_laplacians[m],
                laplacian(mesh.points.coordinates[tet]),
                atol=1e-12,
            )

    def test_strict_rule_only_keeps_pattern(self, rng):
        joints_a = rng.uniform(-0.3, 0.3, size=(6, 3))
        joints_b = rng.uniform(-0.3, 0.3, size=(6, 3)) + (0.5, 0, 0)
        obj = rng.uniform(-0.1, 0.1, size=(5, 3)) + (0.25, 0.1, 0)
        mesh = build_interact_mesh(joints_a, joints_b, obj, RetentionRule(proximity_gate=None))
        for tet in mesh.tetrahedra:
            kinds = [mesh.points.provenance[i][0] for i in tet]
            assert kinds.count("obj") == 1
            assert sorted((kinds.count("A"), kinds.count("B"))) == [1, 2]

    def test_empty_retention_raises(self):
        # all four points from agent A: no mixed tetra exists
        joints_a = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        obj = np.array([[10.0, 10.0, 10.0]])
        with pytest.raises(EmptyInteractMeshError):
            build_interact_mesh(joints_a, None, obj, RetentionRule(proximity_gate=0.5))

    def test_provenance_keeps_original_joint_indices(self):
        # gate removes joint 0; provenance must still name joint 1 and 2
        joints_a = np.array([[9.0, 9.0, 9.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.2]])
        obj = np.array([[0.0, 0.0, 0.0]])
        mesh = build_interact_mesh(joints_a, None, obj)
        agent_indices = {p[1] for p in mesh.points.provenance if p[0] == "A"}
        assert agent_indices == {1, 2, 3}


class TestFarthestPointSubsample:
    def test_returns_all_when_small(self, rng):
        verts = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(farthest_point_subsample(verts, 10), np.arange(5))

    def test_deterministic_and_spread(self, rng):
        verts = rng.normal(size=(50, 3))
        a = farthest_point_subsample(verts, 8)
        b = farthest_point_subsample(verts.copy(), 8)
        np.testing.assert_array_equal(a, b)
        assert len(np.unique(a)) == 8
