import itertools

import numpy as np
import pytest

from retargetkit import interactmesh
from retargetkit.errors import DataError, EmptyInteractMeshError
from retargetkit.interactmesh import (
    DelaunaySeed,
    RetentionRule,
    build_interact_mesh,
    delaunay3d,
    farthest_point_subsample,
    laplacian,
    laplacians,
    tet_volumes,
)
from conftest import CARRY_BOX_HALF, circumsphere, count_insertions, empty_circumsphere_ok, expmap_to_mat, make_box


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


class TestCircumspheres:
    def test_flat_tetrahedron_gets_an_infinite_radius_alone(self, rng):
        # an exactly singular system makes the batched solve raise; the flat
        # row then gets an infinite radius and the others are solved alone
        tets = rng.uniform(-1.0, 1.0, size=(5, 4, 3))
        flat = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]])
        centers, rad2 = interactmesh._circumspheres(np.concatenate([tets[:2], flat, tets[2:]]))
        expected_centers, expected_rad2 = interactmesh._circumspheres(tets)
        assert rad2[2] == np.inf
        assert np.array_equal(np.delete(rad2, 2), expected_rad2)
        assert np.array_equal(np.delete(centers, 2, axis=0), expected_centers)


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
    """Counts the fresh builds behind delaunay3d calls, one per margin tried:
    the lockstep passes with no vertices in their store, by point count."""
    calls = []
    lockstep = interactmesh._lockstep

    def counted(store, vertices, clouds):
        if len(vertices) == 0:
            calls.extend(len(cloud) for cloud in clouds)
        return lockstep(store, vertices, clouds)

    monkeypatch.setattr(interactmesh, "_lockstep", counted)
    return calls


class TestSeededBuild:
    """delaunay3d from a DelaunaySeed: the object's vertices already
    inserted, only the leading joints inserted per build."""

    @pytest.fixture
    def scene(self, rng):
        verts = make_box(half=CARRY_BOX_HALF, subdiv=3).vertices + rng.normal(scale=1e-3, size=(56, 3))
        joints = rng.uniform(-0.4, 0.4, size=(20, 3))
        return DelaunaySeed(verts), joints

    def test_seeded_build_matches_plain_build(self, scene, fresh_builds):
        seed, joints = scene
        points = np.vstack([joints, seed.vertices])
        tets = delaunay3d(points, seed=seed)
        assert fresh_builds == []  # no fresh build of all 76 points
        np.testing.assert_array_equal(tets, delaunay3d(points))
        assert empty_circumsphere_ok(points, tets)

    def test_seed_built_once_and_left_unchanged(self, scene, rng, monkeypatch):
        seed, joints = scene
        inserted = count_insertions(monkeypatch)
        for _ in range(3):
            moved = joints + rng.normal(scale=0.05, size=joints.shape)
            points = np.vstack([moved, seed.vertices])
            np.testing.assert_array_equal(delaunay3d(points, seed=seed), delaunay3d(points))
        assert inserted == [[56], [20], [76], [20], [76], [20], [76]]

    def test_points_not_ending_with_the_seed_ignore_it(self, scene, fresh_builds):
        seed, joints = scene
        points = np.vstack([seed.vertices, joints])
        np.testing.assert_array_equal(delaunay3d(points, seed=seed), delaunay3d(points))
        assert len(fresh_builds) == 2

    def test_joint_outside_super_tetrahedron_falls_back(self, scene, fresh_builds, monkeypatch):
        seed, joints = scene
        far = joints.copy()
        far[3] = (1e5, 0.0, 0.0)
        points = np.vstack([far, seed.vertices])
        inserted = count_insertions(monkeypatch)
        # the fresh build, at every margin, fails its self-checks on this cloud too
        for kwargs in ({"seed": seed}, {}):
            with pytest.raises(DataError, match="self-check"):
                delaunay3d(points, **kwargs)
        assert [20] not in inserted  # the joints never went into the seed's state
        assert len(fresh_builds) == 6

    def test_joint_on_an_object_vertex_falls_back(self, scene, fresh_builds):
        seed, joints = scene
        dup = joints.copy()
        dup[3] = seed.vertices[7]
        points = np.vstack([dup, seed.vertices])
        with pytest.warns(UserWarning, match="duplicate"):
            tets = delaunay3d(points, seed=seed)
        assert len(fresh_builds) == 1
        with pytest.warns(UserWarning, match="duplicate"):
            np.testing.assert_array_equal(tets, delaunay3d(points))


class TestLockstepBuild:
    """A DelaunaySeed given a clip's clouds builds a chunk of them in one
    lockstep pass; each cloud must get the bytes it gets built alone."""

    POISON = np.array([0.02, -0.03, 0.05])  # a joint that the patched predicate puts in no circumsphere

    def test_ragged_batch_with_a_failing_member_equals_solo_builds(self, rng, monkeypatch):
        verts = make_box(half=CARRY_BOX_HALF, subdiv=3).vertices + rng.normal(scale=1e-3, size=(56, 3))
        poisoned = rng.uniform(-0.4, 0.4, size=(15, 3))
        poisoned[6] = self.POISON
        far = rng.uniform(-0.4, 0.4, size=(8, 3))
        far[2] = (1e5, 0.0, 0.0)  # outside the seed's super-tetrahedron
        clouds = [rng.uniform(-0.4, 0.4, size=(20, 3)), rng.uniform(-0.4, 0.4, size=(12, 3)), poisoned, far,
                  rng.uniform(-0.4, 0.4, size=(5, 3)), np.zeros((0, 3))]
        inside = interactmesh._TetStore.inside

        def patched(store, at):
            # the cells of a copy whose next point is the poison hold nothing: its insertion fails
            out = inside(store, at)
            poisoned = (at >= 0) & np.all(store.coords[at] == self.POISON, axis=1)
            return out & ~poisoned[store.comp[: store.size]]

        monkeypatch.setattr(interactmesh._TetStore, "inside", patched)
        inserted = count_insertions(monkeypatch)
        seed = DelaunaySeed(verts, clouds)
        got = [seed.tetrahedralization(cloud) for cloud in clouds]
        assert inserted == [[56], [20, 12, 15, 5, 0]]  # one pass for the chunk, without the far cloud
        alone = [DelaunaySeed(verts).tetrahedralization(cloud) for cloud in clouds]
        assert [tets is None for tets in got] == [False, False, True, True, False, False]
        batch = [cloud for k, cloud in enumerate(clouds) if k != 3]
        assert seed.store.extended(batch).failed.tolist() == [False, False, True, False, False]
        for cloud, a, b in zip(clouds, got, alone):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert empty_circumsphere_ok(np.vstack([cloud, verts]), a)


class TestSeedCache:
    """Seeds of equal vertex bytes share one Bowyer-Watson state per process,
    read-only, for the _SEED_CACHE most recently used objects."""

    @staticmethod
    def arrays(store):
        return {name: value for name, value in vars(store).items() if isinstance(value, np.ndarray)}

    def test_cached_state_left_unchanged_and_read_only(self, rng):
        verts = make_box(half=CARRY_BOX_HALF, subdiv=3).vertices + rng.normal(scale=1e-3, size=(56, 3))
        clouds = [rng.uniform(-0.4, 0.4, size=(20, 3)) for _ in range(20)]
        store = DelaunaySeed(verts).store
        before = {name: value.tobytes() for name, value in self.arrays(store).items()}
        seed = DelaunaySeed(verts, clouds)
        assert all(seed.tetrahedralization(cloud) is not None for cloud in clouds)
        assert seed.store is store
        assert {name: value.tobytes() for name, value in self.arrays(store).items()} == before
        for name, value in self.arrays(store).items():
            with pytest.raises(ValueError, match="read-only"):
                value.reshape(-1)[:1] = value.reshape(-1)[:1]

    def test_equal_vertex_bytes_share_one_seed(self, monkeypatch):
        verts = make_box(half=CARRY_BOX_HALF, subdiv=3).vertices
        moved = verts.copy()
        moved[7, 2] += 1e-3
        inserted = count_insertions(monkeypatch)
        store = DelaunaySeed(verts).store
        assert DelaunaySeed(verts.copy()).store is store
        assert DelaunaySeed(verts.tolist()).store is store
        other = DelaunaySeed(moved).store
        assert other is not store and DelaunaySeed(moved.copy()).store is other
        assert inserted == [[56], [56]]

    def test_least_recently_used_seed_evicted(self, monkeypatch):
        boxes = [make_box(half=(0.1 + 0.01 * k, 0.2, 0.15), subdiv=1).vertices
                 for k in range(interactmesh._SEED_CACHE + 1)]
        inserted = count_insertions(monkeypatch)
        for verts in boxes[:-1]:
            assert DelaunaySeed(verts).store is not None
        assert DelaunaySeed(boxes[0]).store is not None  # now the most recently used
        assert len(inserted) == interactmesh._SEED_CACHE
        inserted.clear()
        assert DelaunaySeed(boxes[-1]).store is not None  # one object too many: boxes[1] goes
        assert DelaunaySeed(boxes[0]).store is not None
        assert len(inserted) == 1
        assert DelaunaySeed(boxes[1]).store is not None
        assert len(inserted) == 2

    def test_failed_seed_falls_back_to_the_fresh_build(self, rng, fresh_builds, monkeypatch):
        verts = make_box(half=CARRY_BOX_HALF, subdiv=3).vertices + rng.normal(scale=1e-3, size=(56, 3))
        joints = rng.uniform(-0.4, 0.4, size=(20, 3))
        poison = verts[9]
        inside = interactmesh._TetStore.inside

        def patched(store, at):
            # the cells of a copy whose next point is the poison hold nothing: its insertion fails
            out = inside(store, at)
            poisoned = (at >= 0) & np.all(store.coords[at] == poison, axis=1)
            return out & ~poisoned[store.comp[: store.size]]

        seed = DelaunaySeed(verts, [joints])
        with monkeypatch.context() as patch:
            patch.setattr(interactmesh._TetStore, "inside", patched)
            assert seed.store is None
        inserted = count_insertions(monkeypatch)
        points = np.vstack([joints, verts])
        tets = delaunay3d(points, seed=seed)
        assert inserted == [[76]] and fresh_builds == [76]  # the failed seed is kept, not rebuilt
        np.testing.assert_array_equal(tets, delaunay3d(points))
        assert empty_circumsphere_ok(points, tets)


# ---------------------------------------------------------------------------
# interact mesh


def reference_in_circumcircle(p, a, b, c) -> bool:
    """The point-at-infinity tie rule for one cell, as the Bowyer-Watson
    insertion decided it cell by cell: the finite face's circumcircle from the
    2x2 Gram solve in its plane, and nothing inside a collinear face."""
    ab, ac = b - a, c - a
    g11, g12, g22 = ab @ ab, ab @ ac, ac @ ac
    det = g11 * g22 - g12 * g12
    if abs(det) < 1e-300:
        return False
    x = (0.5 * g11 * g22 - 0.5 * g22 * g12) / det
    y = (0.5 * g22 * g11 - 0.5 * g11 * g12) / det
    center = a + x * ab + y * ac
    radius = float(np.linalg.norm(center - a))
    return bool(np.isfinite(radius) and np.linalg.norm(p - center) <= radius * (1.0 + 1e-12))


class TestTieRule:
    """_TetStore.inside decides the tied point-at-infinity cells of an
    insertion in one batch; each decision must be the per-cell rule's."""

    def test_batched_decisions_match_the_per_cell_rule_in_a_seed_build(self, monkeypatch):
        decisions = []
        batched = interactmesh._in_circumcircles

        def compared(p, a, b, c):
            got = batched(p, a, b, c)
            assert got.tolist() == [reference_in_circumcircle(*rows) for rows in zip(p, a, b, c)]
            decisions.extend(got.tolist())
            return got

        monkeypatch.setattr(interactmesh, "_in_circumcircles", compared)
        # box-surface vertices inserted one by one tie with hull faces all the time
        assert DelaunaySeed(make_box(half=CARRY_BOX_HALF, subdiv=3).vertices).store is not None
        assert len(decisions) > 500
        assert any(decisions) and not all(decisions)

    def test_collinear_face_holds_nothing(self):
        a = np.zeros((3, 3))
        b = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.25, 0.25, 0.25]])
        c = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.5, 0.5, 0.5]])
        # rows 0 and 2 are collinear (a zero Gram determinant), row 1 a right
        # triangle whose circle holds both points
        for p in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0])):
            got = interactmesh._in_circumcircles(p, a, b, c)
            assert got.tolist() == [False, True, False]
            assert got.tolist() == [reference_in_circumcircle(p, *corners) for corners in zip(a, b, c)]


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

    def test_coplanar_cloud_is_degenerate(self):
        joints_a = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.3, 0.0]])
        obj = np.array([[0.3, 0.3, 0.0], [0.1, 0.2, 0.0]])
        with pytest.raises(EmptyInteractMeshError, match="^degenerate interaction cloud: .*coplanar"):
            build_interact_mesh(joints_a, None, obj, RetentionRule(proximity_gate=None))

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
