"""delaunay3d against independent oracles (test-only dependencies).

scipy's Qhull Delaunay must give the same simplices on clouds in general
position, where the tetrahedralization is unique. A hypothesis fuzz runs box
grids, exact and jittered: the near-cospherical input every subdivided box
makes. There the tetrahedralization is not unique, so the fuzz checks the
defining properties, empty circumspheres and a tiling of Qhull's convex hull.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
spatial = pytest.importorskip("scipy.spatial")

from hypothesis import given, settings, strategies as st

from retargetkit.errors import DataError
from retargetkit.interactmesh import delaunay3d, tet_volumes

from conftest import empty_circumsphere_ok


@pytest.mark.parametrize("seed", range(4))
def test_same_simplices_as_qhull_in_general_position(seed):
    rng = np.random.default_rng(seed)
    for n in (5, 12, 40, 90):
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 10.0) + rng.uniform(-5.0, 5.0, size=3)
        expected = {tuple(sorted(s)) for s in spatial.Delaunay(pts).simplices.tolist()}
        assert {tuple(t) for t in delaunay3d(pts).tolist()} == expected


def box_grid(half, subdiv: int, interior: bool) -> np.ndarray:
    """(subdiv + 1)^3 grid over the box [-half, half]; surface points only unless interior."""
    axes = [np.linspace(-h, h, subdiv + 1) for h in half]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    if interior:
        return grid
    on_surface = np.any(np.isclose(np.abs(grid), np.asarray(half), rtol=0.0, atol=1e-12), axis=1)
    return grid[on_surface]


def jittered(half, subdiv, interior, jitter, seed, offset=(0.0, 0.0, 0.0)) -> np.ndarray:
    grid = box_grid(half, subdiv, interior)
    return grid + np.asarray(offset) + jitter * np.random.default_rng(seed).normal(size=grid.shape)


def assert_delaunay_of_hull(pts, tets):
    assert empty_circumsphere_ok(pts, tets, rel_tol=1e-9)
    hull = spatial.ConvexHull(pts).volume
    assert abs(np.sum(np.abs(tet_volumes(pts, tets))) - hull) <= 1e-9 * hull


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    half=st.tuples(*[st.floats(0.05, 0.5)] * 3),
    subdiv=st.integers(1, 3),
    interior=st.booleans(),
    jitter=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
    offset=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_box_grids_give_delaunay_or_refuse(half, subdiv, interior, jitter, offset, seed):
    # delaunay3d may refuse a cloud its self-checks reject (see the xfail
    # below), but whatever it returns is a Delaunay tiling of the hull, and
    # exact grids are never refused
    pts = jittered(half, subdiv, interior, jitter, seed, offset)
    try:
        tets = delaunay3d(pts)
    except DataError:
        assert jitter > 0.0
        return
    assert_delaunay_of_hull(pts, tets)


def test_overlapping_tetrahedra_not_returned():
    # eight box corners jittered by 1e-13: Bowyer-Watson leaves ten
    # tetrahedra covering 0.08 m^3 of a 0.048 m^3 hull, faces shared three
    # ways; the self-checks must refuse that rather than return it
    pts = jittered((0.1, 0.2, 0.3), subdiv=1, interior=False, jitter=1e-13, seed=3)
    try:
        tets = delaunay3d(pts)
    except DataError:
        return
    assert_delaunay_of_hull(pts, tets)


@pytest.mark.xfail(
    strict=True,
    raises=DataError,
    reason="in-sphere tests on cached circumcenters lose precision on near-flat cells; "
    "jittered box surfaces fail the self-checks at every margin",
)
def test_jittered_carry_box_surface_tetrahedralized():
    pts = jittered((0.09, 0.18, 0.15), subdiv=3, interior=False, jitter=1e-9, seed=0)
    assert_delaunay_of_hull(pts, delaunay3d(pts))
