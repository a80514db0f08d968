"""Interact-mesh construction: Delaunay tetrahedra over agent joints and
object vertices, with per-tetrahedron Laplacian coordinates.

The tetrahedralizer is an incremental Bowyer-Watson (Bowyer 1981, Watson
1981) with a super-tetrahedron. Cells live in preallocated arrays with an
alive mask. Inserting a point kills the cells whose circumsphere holds it
(the cavity) and joins the cavity's boundary faces, found by sorting integer
face keys, to the new point; the new cells take the freed slots, and only
they get circumspheres and point-at-infinity planes computed. The in-sphere
tests run on those cached circumcenters/radii in double precision, and an
insertion's ties on point-at-infinity planes go to one batched in-circle
test. After stripping the super vertices the result is self-checked (no
input point strictly inside any surviving circumsphere at 1e-9 relative,
boundary faces on the convex hull). The checks work on (tetrahedra x
points) blocks of bounded size.

The object is rigid, and a rigid motion leaves Delaunay topology unchanged.
When the caller gives the object's pose, build_interact_mesh triangulates
the cloud in the object's frame, where the object's vertices never move. A
DelaunaySeed holds the Bowyer-Watson state with only those vertices
inserted, built on first use once per process for each object (a bounded
cache keyed by the vertices' bytes, shared by every clip and call on it),
and a seeded build copies it and inserts just the agents' joints.
delaunay3d tries the seeded build, then the fresh build, at each
super-tetrahedron margin of _MARGINS in turn until one passes the
self-checks. Where ties
leave the tetrahedralization non-unique (cospherical box vertices),
object-first insertion may break them differently from a build in input
order; both are Delaunay.

A frame's tetrahedralization depends on that frame alone, so the frames of
a clip are independent builds. One store holds several disjoint
triangulations, each with its own vertex block and super vertices, and
inserts one point into each per step; every test on a cell uses only its
own triangulation's data, so each ends as it would alone. A DelaunaySeed
given the clip's clouds builds them in lockstep, _LOCKSTEP_CHUNK at most at a time,
and self-checks each chunk together. One routine, _lockstep, serves every
build: a build alone is a lockstep of one, and a fresh build is a lockstep
of one cloud, all the points, from the empty seed, the super-tetrahedron
alone.
"""

from __future__ import annotations

import copy
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyInteractMeshError, check_settings, setting
from .rotations import row_dots

DUPLICATE_TOL = 1e-12
COPLANAR_TOL = 1e-9
INSPHERE_REL_TOL = 1e-9
DEGENERATE_VOLUME = 1e-9  # m^3
# the four faces of a tetrahedron (a, b, c, d), as corner positions
_FACES = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
_CHECK_BLOCK = 1 << 13  # elements per (rows x points) temporary in the checks
_LOCKSTEP_CHUNK = 16  # most clouds per lockstep Bowyer-Watson pass: bounds its arrays
_SEED_CACHE = 16  # most object seed states kept per process, ~40 KB each at 64 vertices
_MARGINS = (1e3, 1e5, 1e7)  # super-tetrahedron insphere radius over the points' radius, tried in turn
# unit directions from a super-tetrahedron's center to its vertices
_SUPER_DIRS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) / np.sqrt(3)

AGENT_A = "A"
AGENT_B = "B"
OBJECT = "obj"


def laplacian(tet_points: np.ndarray) -> np.ndarray:
    """4x3 Laplacian coordinates: row i = sum_{j != i} (p_i - p_j).

    Algebraically 4 p_i - sum_k p_k, but computed from pairwise differences:
    subtracting nearby points cancels any large common offset before the sum,
    which keeps translation invariance tight even for far-from-origin clouds.
    """
    p = np.asarray(tet_points, dtype=float)
    if p.shape != (4, 3):
        raise DataError(f"expected four 3D points, got shape {p.shape}")
    return (p[:, None, :] - p[None, :, :]).sum(axis=1)


def laplacians(tet_points: np.ndarray) -> np.ndarray:
    """Batched laplacian: (M, 4, 3) -> (M, 4, 3)."""
    p = np.asarray(tet_points, dtype=float)
    return (p[:, :, None, :] - p[:, None, :, :]).sum(axis=2)


def tet_volumes(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volumes of index tetrahedra."""
    p = points[tets]
    a, b, c = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0], p[:, 3] - p[:, 0]
    return np.einsum("ij,ij->i", a, _cross(b, c)) / 6.0


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise u x v of (k, 3) arrays: np.cross's products, without its overhead."""
    return np.column_stack([u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1], u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2],
                            u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]])


def _circumspheres(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circumcenters and squared radii of (k, 4, 3) tetra corner arrays.

    Solves 2 (p_i - p_0) . c = |p_i - p_0|^2 with the origin shifted to p_0,
    which stays well conditioned even for far-away super vertices. Degenerate
    tetrahedra get an infinite radius so any later point destroys them.
    """
    rel = p[:, 1:] - p[:, 0:1]  # (k, 3, 3)
    mat = 2.0 * rel
    rhs = np.einsum("kij,kij->ki", rel, rel)
    try:
        sol = np.linalg.solve(mat, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # a singular matrix: solve the others alone
        good = np.abs(np.linalg.det(mat)) > 1e-300
        sol = np.full((len(p), 3), np.inf)
        sol[good] = np.linalg.solve(mat[good], rhs[good][..., None])[..., 0]
    rad2 = np.einsum("ki,ki->k", sol, sol)
    finite = np.isfinite(rad2)  # then the centre is finite too
    rad2[~finite] = np.inf
    return np.where(finite[:, None], p[:, 0] + sol, p[:, 0]), rad2


def _extent(points: np.ndarray) -> float:
    return float(np.max(points.max(axis=0) - points.min(axis=0)))


def _row_blocks(rows: int, cols: int):
    """Slices over rows that keep a (rows x cols) temporary near _CHECK_BLOCK elements."""
    step = max(1, _CHECK_BLOCK // max(cols, 1))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances.

    Summed axis by axis in x, y, z order, the order np.linalg.norm(axis=1)
    sums in, so the checks see the distances a per-row norm would give.
    """
    out = np.zeros((len(a), len(b)))
    diff = np.empty_like(out)
    for axis in range(3):
        np.subtract(a[:, axis, None], b[None, :, axis], out=diff)
        diff *= diff
        out += diff
    return out


def _merge_duplicates(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse points closer than DUPLICATE_TOL; returns (unique, original index map).

    Greedy in input order: a point is dropped when it lies within the
    tolerance of an earlier point that was kept.
    """
    n = len(points)
    keep = np.ones(n, dtype=bool)
    for rows in _row_blocks(n, n):
        index = np.arange(n)[rows]
        close = _sq_distances(points[rows], points) < DUPLICATE_TOL**2
        close &= np.arange(n)[None, :] < index[:, None]
        for r in np.nonzero(close.any(axis=1))[0]:
            keep[index[r]] = not np.any(close[r] & keep)
    if not np.all(keep):
        warnings.warn(f"merged {n - np.count_nonzero(keep)} duplicate point(s)", stacklevel=3)
    return points[keep], np.nonzero(keep)[0]


def _super_tetrahedron(points: np.ndarray, margin: float) -> np.ndarray:
    center = points.mean(axis=0)
    radius = max(np.max(np.linalg.norm(points - center, axis=1)), 1.0)
    # a regular tetrahedron with vertex distance L has insphere radius L/3
    return center + _SUPER_DIRS * (3.0 * margin * radius)


def _inside_super(points: np.ndarray, super_vertices: np.ndarray) -> bool:
    """True when every point lies strictly inside the super-tetrahedron.

    The face opposite vertex c + L d_i is the plane (x - c) . d_i = -L/3.
    """
    center = super_vertices.mean(axis=0)
    reach = np.linalg.norm(super_vertices[0] - center) / 3.0
    return bool(np.all((points - center) @ _SUPER_DIRS.T > -reach))


def _boundary_faces(tets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The faces of (M, 4) tetrahedra over n vertices that one tetrahedron
    owns, and those that more than two share; each face's indices ascending,
    faces in ascending order."""
    a, b, c = tets[:, _FACES].reshape(-1, 3).T
    low, high = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
    keys = (low * n + (a + b + c - low - high)) * n + high
    # np.unique's counts, from one stable sort
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    counts = np.diff(starts, append=len(keys))

    def faces(first):
        lo, hi = low[first], high[first]
        return np.column_stack([lo, a[first] + b[first] + c[first] - lo - hi, hi])

    return faces(order[starts[counts == 1]]), faces(order[starts[counts > 2]])


def _in_circumcircles(p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether each row of p (or p itself) lies within 1e-12 relative in the
    circumcircle of its triangle (a, b, c), as (k, 3) corner rows: a 2x2 Gram
    solve in its plane, row by row as for one triangle alone. Collinear
    triangles hold nothing."""
    ab, ac = b - a, c - a
    g11, g12, g22 = row_dots(ab, ab), row_dots(ab, ac), row_dots(ac, ac)
    det = g11 * g22 - g12 * g12
    collinear = np.abs(det) < 1e-300
    det[collinear] = 1.0  # any finite divisor: these rows hold nothing
    x = (0.5 * g11 * g22 - 0.5 * g22 * g12) / det
    y = (0.5 * g22 * g11 - 0.5 * g11 * g12) / det
    center = a + x[:, None] * ab + y[:, None] * ac
    radius = np.sqrt(row_dots(center - a, center - a))
    dist = np.sqrt(row_dots(p - center, p - center))
    return ~collinear & np.isfinite(radius) & (dist <= radius * (1.0 + 1e-12))


class _TetStore:
    """Bowyer-Watson state of K disjoint triangulations (components) in one
    set of arrays: tetrahedra in preallocated arrays, plus the data their
    in-sphere predicate needs, computed once when a cell is created.

    coords holds each component's block of vertices in turn: its points, then
    its four super vertices, the first of which is supers[c]; owner maps a
    vertex to its component and comp a cell to its. Slots [0, size) are in
    use; `alive` marks the cells of the current triangulations. An insertion
    step kills its cavities and writes the new cells into the freed slots
    first, so the arrays hardly grow.

    Cells with exactly one super vertex use the point-at-infinity predicate:
    a point is inside the (limit) circumsphere iff it lies strictly on the
    super side of the plane through the three finite vertices, with coplanar
    ties resolved by the in-circle test on that face, one batch for all of a
    step's tied cells. All other cells use the numeric circumsphere. This
    keeps hull coverage independent of where the finite super vertices sit.
    A cavity's boundary is its faces with one owner (integer face keys,
    sorted and counted); each new cell is such a face, ascending, then the point.
    Components share no vertex, so no face key is shared between them, and
    every test on a cell uses only its own component's data: each component
    ends as it would alone.
    """

    _ARRAYS = ("tets", "alive", "comp", "centers", "rad2", "sym", "normals", "faces")

    def __init__(self, super_vertices: np.ndarray):
        """The empty seed: one component, no point yet, one cell, the
        super-tetrahedron."""
        self.coords = np.asarray(super_vertices, dtype=float)
        self.bases = np.zeros(1, dtype=int)  # each component's first vertex
        self.supers = np.zeros(1, dtype=int)  # each component's first super vertex
        self.owner = np.zeros(4, dtype=int)
        self.failed = np.zeros(1, dtype=bool)
        self.size = 0
        self.tets = np.zeros((1, 4), dtype=int)
        self.alive = np.zeros(1, dtype=bool)
        self.comp = np.zeros(1, dtype=int)
        self.centers = np.zeros((1, 3))
        self.rad2 = np.zeros(1)
        self.sym = np.zeros(1, dtype=bool)
        self.normals = np.zeros((1, 3))  # super-side normal of the finite face
        self.faces = np.zeros((1, 3), dtype=int)  # finite face, oriented along normals
        self.refill(np.zeros(0, dtype=int), np.array([[0, 1, 2, 3]]))

    def _reallocate(self, capacity: int) -> None:
        """Fresh arrays of the given capacity, holding the cells in use."""
        for name in self._ARRAYS:
            old = getattr(self, name)[: self.size]
            new = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
            new[: self.size] = old
            setattr(self, name, new)

    def extended(self, point_sets) -> "_TetStore":
        """K copies of this one-component state, copy c with point_sets[c]
        inserted in order after the points it holds; this state is left as
        it was.

        The copies are built in lockstep: step j inserts point j of every
        copy that has one. A copy whose point lies in no circumsphere stops
        there and is marked in `failed`; the others go on. In copy c the new
        points take the indices before its super vertices.
        """
        n = int(self.supers[0])
        counts = np.array([len(p) for p in point_sets], dtype=int)
        blocks = n + counts + 4
        out = copy.copy(self)
        out.coords = np.vstack([np.vstack([self.coords[:n], p, self.coords[n:]]) for p in point_sets])
        out.bases = np.cumsum(blocks) - blocks
        out.supers = out.bases + n + counts
        out.owner = np.repeat(np.arange(len(counts)), blocks)
        out.failed = np.zeros(len(counts), dtype=bool)
        k, live = len(counts), np.nonzero(self.alive[: self.size])[0]
        # an insertion adds two cells net inside the hull, one per hull face it
        # sees outside (about nine for a joint beside an object); zeroed
        # capacity costs no memory until a cell is written to it
        out.size = 0
        out._reallocate(k * (len(live) + 16) + 12 * int(counts.sum()))
        out.size = k * len(live)
        for name in self._ARRAYS:
            rows = getattr(self, name)[live]
            getattr(out, name)[: out.size] = np.tile(rows, (k,) + (1,) * (rows.ndim - 1))
        # vertex v of this state is vertex v of each copy's block, the super
        # vertices moved up past the new points
        shift = np.repeat(out.bases, len(live))[:, None]
        tets = out.tets[: out.size]
        tets += shift + np.where(tets >= n, np.repeat(counts, len(live))[:, None], 0)
        out.faces[: out.size] += shift  # finite vertices only
        out.comp[: out.size] = np.repeat(np.arange(k), len(live))
        for j in range(counts.max(initial=0)):
            active = np.nonzero((counts > j) & ~out.failed)[0]
            out.insert(active, out.bases[active] + n + j)
        return out

    def insert(self, comps: np.ndarray, points: np.ndarray) -> None:
        """One Bowyer-Watson step in each component comps[k]: replace its
        cells whose circumsphere holds point points[k] by the cone from that
        point over the cavity's boundary."""
        at = np.full(len(self.supers), -1)
        at[comps] = points
        cavity = np.nonzero(self.inside(at))[0]
        # the tetrahedra tile the super-tetrahedron, so every inserted point
        # sits inside at least one circumsphere; a component whose point does
        # not (degenerate input) fails, and takes no further point
        hit = np.zeros(len(self.supers), dtype=bool)
        hit[self.comp[cavity]] = True
        self.failed[comps[~hit[comps]]] = True
        boundary = _boundary_faces(self.tets[cavity], len(self.coords))[0]
        # the face, then the point: a cell's plane and sphere arithmetic follow its vertex order
        self.refill(cavity, np.column_stack([boundary, at[self.owner[boundary[:, 0]]]]))

    def refill(self, cavity: np.ndarray, new: np.ndarray) -> None:
        """Kill the cavity's cells and store the new ones, freed slots first.
        Each new cell is a face, ascending, then the inserted point, or [0, 1, 2, 3]."""
        self.alive[cavity] = False
        extra = len(new) - len(cavity)
        if extra > 0:
            if self.size + extra > len(self.alive):
                self._reallocate(max(self.size + extra, 2 * len(self.alive)))
            slots = np.concatenate([cavity, np.arange(self.size, self.size + extra)])
            self.size += extra
        else:
            slots = cavity[: len(new)]
        self.tets[slots] = new
        self.alive[slots] = True
        comp = self.owner[new[:, 0]]
        self.comp[slots] = comp
        self.centers[slots], self.rad2[slots] = _circumspheres(self.coords.take(new, axis=0))
        # super vertices have the highest indices of their block: a cell with exactly one holds it third
        first_super = self.supers[comp]
        sym = (new[:, 2] >= first_super) & (new[:, 1] < first_super)
        self.sym[slots] = sym
        if not np.any(sym):
            return
        # the finite vertices in cell order, then the super vertex
        fin, sup = new[sym][:, [0, 1, 3]], new[sym, 2]
        a, b, c = (self.coords[fin[:, k]] for k in range(3))
        normal = _cross(b - a, c - a)
        flip = np.einsum("kj,kj->k", normal, self.coords[sup] - a) < 0
        fin[flip] = fin[flip][:, [0, 2, 1]]
        normal[flip] = -normal[flip]
        self.normals[slots[sym]] = normal
        self.faces[slots[sym]] = fin

    def inside(self, at: np.ndarray) -> np.ndarray:
        """Per slot, whether the cell is alive and holds point at[c] of its
        component c in its circumsphere (at[c] < 0: component c takes no point)."""
        # Ties (cospherical/cocircular within round-off) count as inside, so
        # the newest point consistently re-triangulates degenerate shells
        # instead of leaving contradictory diagonals behind.
        m = self.size
        point = at.take(self.comp[:m])
        alive, sym = self.alive[:m] & (point >= 0), self.sym[:m]
        diff = self.coords.take(point, axis=0)  # take: a faster row gather than indexing
        np.subtract(self.centers[:m], diff, out=diff)
        out = np.einsum("kj,kj->k", diff, diff) <= self.rad2[:m] * (1.0 + 1e-12)
        out &= alive & ~sym
        sym_idx = np.nonzero(alive & sym)[0]
        if len(sym_idx):
            normals, p = self.normals.take(sym_idx, axis=0), self.coords.take(point.take(sym_idx), axis=0)
            d = p - self.coords.take(self.faces[:, 0].take(sym_idx), axis=0)
            val = np.einsum("kj,kj->k", normals, d)
            scale = np.linalg.norm(normals, axis=1) * (np.linalg.norm(d, axis=1) + 1e-30)
            tol = 1e-12 * scale
            out[sym_idx] = val > tol
            tied = np.abs(val) <= tol
            if np.any(tied):
                a, b, c = (self.coords[v] for v in self.faces[sym_idx[tied]].T)
                out[sym_idx[tied]] = _in_circumcircles(p[tied], a, b, c)
        return out

    def finite_cells(self) -> list[np.ndarray | None]:
        """Per component, its cells without a super vertex as indices into
        its own block; None for a failed component."""
        m = self.size
        cells, comp = self.tets[:m], self.comp[:m]
        keep = self.alive[:m] & (cells.max(axis=1) < self.supers[comp])
        cells, comp = cells[keep], comp[keep]
        order = np.argsort(comp, kind="stable")
        cells, comp = cells[order] - self.bases[comp[order], None], comp[order]
        parts = np.split(cells, np.searchsorted(comp, np.arange(1, len(self.supers))))
        return [None if failed else part for part, failed in zip(parts, self.failed)]


def _triangulation(points: np.ndarray, cells: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Finite cells as canonical indices into points, where the cells'
    point k is points[order[k]]."""
    final = order[cells]
    if len(final):
        # cospherical shells can leave flat slivers behind; they carry no
        # volume and an unbounded circumsphere, so drop them
        final = final[np.abs(tet_volumes(points, final)) > 1e-12 * _extent(points) ** 3]
    return _canonical(final)


def _canonical(tets: np.ndarray) -> np.ndarray:
    """Rows sorted, then rows in lexicographic order: deterministic output."""
    tets = np.sort(tets, axis=1)
    return tets[np.lexsort(tets.T[::-1])]


def _self_check_failures(clouds: list[np.ndarray], tets: list[np.ndarray]) -> np.ndarray:
    """Per cloud, whether its tetrahedra fail the self-checks: an empty set,
    a point strictly inside a circumsphere (1e-9 relative) or a degenerate
    tetrahedron, or tetrahedra that do not tile the convex hull.

    The clouds are checked together, in groups of about _CHECK_BLOCK / 4
    tetrahedra (the face keys' temporaries), each padded to the widest of
    its group with NaN points, which no comparison counts; every cloud's
    numbers are the ones it would get alone.
    """
    ends = np.cumsum([len(t) for t in tets])
    groups = np.split(np.arange(len(tets)), np.flatnonzero(np.diff(ends // (_CHECK_BLOCK // 4))) + 1)
    return np.concatenate([_group_failures([clouds[c] for c in g], [tets[c] for c in g]) for g in groups])


def _group_failures(clouds: list[np.ndarray], tets: list[np.ndarray]) -> np.ndarray:
    k, width = len(clouds), max(len(p) for p in clouds)
    axes = np.full((3, k, width), np.nan)  # axes[i, c, j]: coordinate i of point j of cloud c
    for c, p in enumerate(clouds):
        axes[:, c, : len(p)] = p.T
    counts = np.array([len(t) for t in tets])
    comp = np.repeat(np.arange(k), counts)
    cells = np.concatenate(tets)
    failed = counts == 0
    _circumsphere_violations(axes, cells, comp, failed)
    _coverage_violations(clouds, axes, cells, comp, failed)
    return failed


def _circumsphere_violations(axes, cells, comp, failed) -> None:
    """Marks in failed the clouds with a point strictly inside a
    circumsphere of one of their tetrahedra, or a degenerate tetrahedron."""
    if len(cells) == 0:
        return
    centers, rad2 = np.empty((len(cells), 3)), np.empty(len(cells))
    for rows in _row_blocks(len(cells), 12):  # (rows, 4, 3) corners
        corners = np.stack([axes[i][comp[rows, None], cells[rows]] for i in range(3)], axis=2)
        centers[rows], rad2[rows] = _circumspheres(corners)
    finite = np.isfinite(rad2)
    failed[comp[~finite]] = True  # a surviving degenerate tetrahedron is itself a violation
    rad = np.sqrt(np.where(finite, rad2, np.nan))
    for rows in _row_blocks(len(cells), axes.shape[2]):
        # depth (r - d) / r of every point in every sphere, computed in place
        owner = comp[rows]
        depth = np.zeros((len(owner), axes.shape[2]))
        diff = np.empty_like(depth)
        for i in range(3):
            np.subtract(centers[rows, i, None], axes[i].take(owner, axis=0), out=diff)
            diff *= diff
            depth += diff
        np.sqrt(depth, out=depth)
        r = rad[rows, None]
        np.subtract(r, depth, out=depth)
        depth /= r
        inside = depth > INSPHERE_REL_TOL
        inside[np.arange(len(depth))[:, None], cells[rows]] = False  # corners are on the sphere
        failed[owner[inside.any(axis=1)]] = True


def _coverage_violations(clouds, axes, cells, comp, failed) -> None:
    """Marks in failed the clouds whose tetrahedra fail to tile the convex hull.

    The finite triangulation tiles conv(points) exactly when each of its
    boundary faces (faces owned by a single tetrahedron) is a hull face, i.e.
    no point lies strictly on its outer side, and no face is shared by more
    than two tetrahedra.
    """
    width = axes.shape[2]
    boundary, crowded = _boundary_faces(cells + (comp * width)[:, None], len(clouds) * width)
    failed[crowded[:, 0] // width] = True
    owner = boundary[:, 0] // width
    boundary = boundary - (owner * width)[:, None]
    a, b, c = (np.stack([axes[i][owner, boundary[:, j]] for i in range(3)], axis=1) for j in range(3))
    normal = _cross(b - a, c - a)
    extents = np.array([_extent(p) for p in clouds])
    tol = 1e-9 * np.linalg.norm(normal, axis=1) * extents[owner]
    for rows in _row_blocks(len(boundary), width):
        side = np.zeros((len(owner[rows]), width))
        term = np.empty_like(side)
        for i in range(3):
            np.subtract(axes[i].take(owner[rows], axis=0), a[rows, i, None], out=term)
            term *= normal[rows, i, None]
            side += term
        t = tol[rows, None]
        failed[owner[rows][np.any(side > t, axis=1) & np.any(side < -t, axis=1)]] = True


@functools.lru_cache(maxsize=_SEED_CACHE)
def _seed_store(vertex_bytes: bytes) -> _TetStore | None:
    """The Bowyer-Watson state holding only the object-frame vertices whose
    float64 bytes these are, inside a super-tetrahedron sized from them; None
    when they cannot seed a build.

    The state is a function of the bytes alone, so one build serves every
    clip and call on the object in the process. Its arrays are read-only:
    every build copies them (_TetStore.extended), and none may change them.
    """
    vertices = np.frombuffer(vertex_bytes).reshape(-1, 3)
    store = _TetStore(_super_tetrahedron(vertices, _MARGINS[0])).extended([vertices])
    if store.failed[0]:
        return None
    store._reallocate(store.size)  # no spare capacity: it is never written again
    for value in vars(store).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return store


class DelaunaySeed:
    """Bowyer-Watson state holding only a rigid object's vertices, in the
    object's own frame.

    A rigid motion leaves Delaunay topology unchanged, so a clip whose
    clouds are triangulated in the object's frame can start every build from
    the object's vertices already inserted, and insert only the agents'
    joints. The state is built inside a super-tetrahedron sized from the
    object, once per process for equal vertex bytes (_seed_store, the
    _SEED_CACHE most recently used objects); each build copies it.

    clouds are the joints, object frame, of the clip's clouds (each cloud is
    its joints, then the vertices), split into near-equal chunks of at most
    _LOCKSTEP_CHUNK. The first time a cloud is asked for, the builds of its
    chunk run as one lockstep pass; any other cloud is built alone.
    """

    def __init__(self, vertices, clouds=()):
        self.vertices = np.array(vertices, dtype=float).reshape(-1, 3)
        clouds = [np.asarray(c, dtype=float).reshape(-1, 3) for c in clouds]
        chunks = np.array_split(np.arange(len(clouds)), max(1, -(-len(clouds) // _LOCKSTEP_CHUNK)))  # near-equal
        self._chunks = [[clouds[t] for t in chunk] for chunk in chunks]
        self._waiting = {c.tobytes(): k for k, chunk in enumerate(self._chunks) for c in chunk}
        self._built: dict[bytes, np.ndarray | None] = {}

    @property
    def store(self) -> _TetStore | None:
        """The state (None when the object's vertices cannot seed a build)."""
        return _seed_store(self.vertices.tobytes())

    def tetrahedralization(self, joints: np.ndarray) -> np.ndarray | None:
        """delaunay3d's result for the cloud of joints then the seed's
        vertices, built from the seed's state; None when that build fails (a
        joint outside the seed's super-tetrahedron or in no circumsphere, or
        the self-checks)."""
        key = joints.tobytes()
        if key not in self._built:
            chunk = self._waiting.get(key)
            clouds = [joints] if chunk is None else self._chunks[chunk]
            for cloud, tets in zip(clouds, _lockstep(self.store, self.vertices, clouds)):
                self._built[cloud.tobytes()] = tets
                self._waiting.pop(cloud.tobytes(), None)
        return self._built.pop(key)


def _lockstep(store: _TetStore | None, vertices: np.ndarray, clouds: list[np.ndarray]) -> list[np.ndarray | None]:
    """The builds of each cloud then the vertices, from store, the state
    holding only the vertices: one lockstep pass, self-checked together.
    Per cloud, its canonical tetrahedra, or None when the store is None, the
    cloud leaves its super-tetrahedron, an insertion fails or the self-checks
    do."""
    out: list[np.ndarray | None] = [None] * len(clouds)
    if store is None:
        return out
    supers = store.coords[store.supers[0]:]
    batch = [k for k, c in enumerate(clouds) if _inside_super(c, supers)]
    if not batch:
        return out
    built = [(k, cells) for k, cells in zip(batch, store.extended([clouds[k] for k in batch]).finite_cells())
             if cells is not None]
    if not built:
        return out
    points = [np.vstack([clouds[k], vertices]) for k, _ in built]
    # the cells hold the vertices first, then the cloud
    tets = [_triangulation(p, cells, np.roll(np.arange(len(p)), -len(clouds[k])))
            for p, (k, cells) in zip(points, built)]
    for (k, _), t, failed in zip(built, tets, _self_check_failures(points, tets)):
        out[k] = None if failed else t
    return out


def _seeded(points: np.ndarray, seed: DelaunaySeed) -> np.ndarray | None:
    """A build of points that ends with the seed's vertices, from the seed's
    state; None when the seed does not apply or its build fails."""
    n_joints = len(points) - len(seed.vertices)
    if n_joints < 0 or not np.array_equal(points[n_joints:], seed.vertices):
        return None
    return seed.tetrahedralization(points[:n_joints])


def delaunay3d(points, seed: DelaunaySeed | None = None) -> np.ndarray:
    """Delaunay tetrahedralization of >= 4 non-coplanar points.

    Returns an (M, 4) int array of indices into the input, rows ascending
    and in lexicographic order; indices of merged duplicates resolve to the
    first occurrence. Every output tetrahedron has an empty circumsphere at
    1e-9 relative tolerance, and together they tile the convex hull.

    seed, when the points end with its vertices, starts the build from them
    already inserted; it is ignored whenever the input holds duplicates. A
    seeded build that fails (a point outside the seed's super-tetrahedron,
    or the self-checks) falls back to a fresh build of all the points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DataError(f"points must be (N, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DataError("points contain non-finite values")
    unique, index_map = _merge_duplicates(pts)
    if len(unique) < 4:
        raise DataError(f"need at least 4 distinct points, got {len(unique)}")
    centered = unique - unique.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[2] <= COPLANAR_TOL * max(svals[0], 1e-300):
        raise DataError("points are coplanar within tolerance; cannot tetrahedralize")
    if seed is not None and len(unique) == len(pts):
        tets = _seeded(unique, seed)
        if tets is not None:
            return tets

    for margin in _MARGINS:  # a fresh build: every point, in input order, from the empty seed
        (tets,) = _lockstep(_TetStore(_super_tetrahedron(unique, margin)), unique[:0], [unique])
        if tets is not None:
            return index_map[tets]
    raise DataError("tetrahedralization failed the empty-circumsphere self-check")


def farthest_point_subsample(vertices: np.ndarray, count: int) -> np.ndarray:
    """Deterministic farthest-point sampling; returns sorted vertex indices.

    Seeds at vertex 0 and greedily adds the vertex farthest from the chosen
    set (ties resolve to the lowest index).
    """
    verts = np.asarray(vertices, dtype=float)
    if count >= len(verts):
        return np.arange(len(verts))
    chosen = [0]
    dist = np.linalg.norm(verts - verts[0], axis=1)
    while len(chosen) < count:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(verts - verts[nxt], axis=1))
    return np.array(sorted(chosen), dtype=int)


@dataclass(frozen=True)
class RetentionRule:
    """Which Delaunay tetrahedra count as interaction structure.

    strict keeps the two-joints-one-object-vertex-one-other-joint pattern
    (either agent contributing the pair); with no second agent it falls back
    to the HOI rule (>= 1 agent joint and >= 1 object vertex). loose keeps any
    tetrahedron with at least one object vertex and one agent joint.
    proximity_gate, when set, drops joints farther than this from every
    (already subsampled) object vertex before triangulating.
    """

    mode: str = setting("strict", choices=("strict", "loose"))
    proximity_gate: float | None = setting(0.5, gt=0, none_ok=True)  # meters

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class PointCloud:
    """Combined point cloud with per-point provenance.

    provenance entries are (kind, index) with kind in {"A", "B", "obj"} and
    index the joint index (agents) or subsampled-vertex position (object).
    """

    coordinates: np.ndarray  # (N, 3)
    provenance: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class InteractMesh:
    points: PointCloud
    tetrahedra: np.ndarray  # (M, 4) indices into points
    reference_laplacians: np.ndarray  # (M, 4, 3)

    @property
    def tet_count(self) -> int:
        return len(self.tetrahedra)


def _retained(kinds: np.ndarray, tets: np.ndarray, volumes: np.ndarray,
              mode: str, two_agents: bool) -> np.ndarray:
    k = kinds[tets]
    n_a = np.count_nonzero(k == 0, axis=1)
    n_b = np.count_nonzero(k == 1, axis=1)
    n_o = np.count_nonzero(k == 2, axis=1)
    if mode == "loose" or not two_agents:
        keep = (n_o >= 1) & ((n_a + n_b) >= 1)
    else:
        keep = (n_o == 1) & (((n_a == 2) & (n_b == 1)) | ((n_b == 2) & (n_a == 1)))
    return keep & (np.abs(volumes) > DEGENERATE_VOLUME)


def _gated(joints: np.ndarray, obj_vertices: np.ndarray, rule: RetentionRule) -> np.ndarray:
    """Indices of the joints within the rule's proximity gate of an object vertex."""
    if rule.proximity_gate is None or len(joints) == 0:
        return np.arange(len(joints))
    d = np.linalg.norm(joints[:, None, :] - obj_vertices[None, :, :], axis=2).min(axis=1)
    return np.nonzero(d <= rule.proximity_gate)[0]


def _as_rows(points) -> np.ndarray:
    return np.zeros((0, 3)) if points is None else np.asarray(points, dtype=float).reshape(-1, 3)


def _to_object_frame(points: np.ndarray, rotation: np.ndarray, position: np.ndarray) -> np.ndarray:
    return (points - position) @ rotation


def _cloud_joints(joints_a, joints_b, obj_vertices, rule: RetentionRule):
    """The gated joints that lead the cloud over these world-frame arrays,
    agent A's then agent B's, with each agent's kept joint indices and the
    object's vertices as (V, 3) rows. build_interact_mesh and
    object_frame_joints both take them from here, so the joints a
    DelaunaySeed is given ahead are the ones its builds are asked for."""
    joints_a, joints_b, obj_vertices = _as_rows(joints_a), _as_rows(joints_b), _as_rows(obj_vertices)
    if len(obj_vertices) == 0:
        raise EmptyInteractMeshError("no object vertices")
    idx_a = _gated(joints_a, obj_vertices, rule)
    idx_b = _gated(joints_b, obj_vertices, rule)
    return np.vstack([joints_a[idx_a], joints_b[idx_b]]), idx_a, idx_b, obj_vertices


def object_frame_joints(joints_a, joints_b, obj_vertices, rule: RetentionRule,
                        rotation: np.ndarray, position: np.ndarray) -> np.ndarray:
    """The joints build_interact_mesh triangulates, in the object's frame
    (rotation, position its pose), so a DelaunaySeed can be given them ahead."""
    return _to_object_frame(_cloud_joints(joints_a, joints_b, obj_vertices, rule)[0], rotation, position)


def build_interact_mesh(
    joints_a: np.ndarray,
    joints_b: np.ndarray | None,
    obj_vertices: np.ndarray,
    rule: RetentionRule | None = None,
    object_frame: tuple[DelaunaySeed, np.ndarray, np.ndarray] | None = None,
) -> InteractMesh:
    """Delaunay over the combined cloud, filtered by the retention rule.

    joints are world-frame (J, 3) arrays; obj_vertices world-frame and already
    subsampled. Raises EmptyInteractMeshError when nothing survives, which
    signals the caller to skip the Laplacian term for this frame.

    object_frame, (seed, rotation, position), is the object's pose this
    frame, obj_vertices = seed.vertices @ rotation.T + position. The cloud is
    then triangulated in the object's frame, from the seed's state; the
    mesh's coordinates and Laplacians stay in the world frame.
    """
    rule = rule or RetentionRule()
    joints, idx_a, idx_b, obj_vertices = _cloud_joints(joints_a, joints_b, obj_vertices, rule)
    coords = np.vstack([joints, obj_vertices])
    provenance = tuple(
        [(AGENT_A, int(j)) for j in idx_a]
        + [(AGENT_B, int(j)) for j in idx_b]
        + [(OBJECT, v) for v in range(len(obj_vertices))]
    )
    if len(coords) < 4:
        raise EmptyInteractMeshError(
            f"only {len(coords)} point(s) within the proximity gate"
        )
    seed, local = None, coords
    if object_frame is not None:
        seed, rotation, position = object_frame
        local = np.vstack([_to_object_frame(joints, rotation, position), seed.vertices])
    try:
        tets = delaunay3d(local, seed=seed)
    except DataError as exc:
        raise EmptyInteractMeshError(f"degenerate interaction cloud: {exc}") from exc

    kinds = np.array([{AGENT_A: 0, AGENT_B: 1, OBJECT: 2}[p[0]] for p in provenance])
    volumes = tet_volumes(coords, tets)
    keep = _retained(kinds, tets, volumes, rule.mode, two_agents=len(idx_b) > 0)
    retained = tets[keep]
    if len(retained) == 0:
        raise EmptyInteractMeshError("no tetrahedron satisfied the retention rule")
    return InteractMesh(
        points=PointCloud(coordinates=coords, provenance=provenance),
        tetrahedra=retained,
        reference_laplacians=laplacians(coords[retained]),
    )


def mesh_to_dict(mesh: InteractMesh) -> dict:
    """JSON-ready dump of an interact mesh for CLI inspection."""
    return {
        "points": [
            {"kind": kind, "index": idx, "position": [float(c) for c in coord]}
            for (kind, idx), coord in zip(mesh.points.provenance, mesh.points.coordinates)
        ],
        "tetrahedra": [[int(i) for i in tet] for tet in mesh.tetrahedra],
        "reference_laplacians": [
            [[float(x) for x in row] for row in lap] for lap in mesh.reference_laplacians
        ],
    }
