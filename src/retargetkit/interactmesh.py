"""Interact-mesh construction: Delaunay tetrahedra over agent joints and
object vertices, with per-tetrahedron Laplacian coordinates.

The tetrahedralizer is an incremental Bowyer-Watson (Bowyer 1981, Watson
1981) with a super-tetrahedron. Cells live in preallocated arrays with an
alive mask. Inserting a point kills the cells whose circumsphere holds it
(the cavity) and joins the cavity's boundary faces, found by integer face keys
and np.unique counts, to the new point; the new cells take the freed slots,
and only they get circumspheres and point-at-infinity planes computed. The
in-sphere tests run on those cached circumcenters/radii in double precision,
and an insertion's ties on point-at-infinity planes go to one batched
in-circle test. After stripping the super vertices the result is self-checked
(no input point strictly inside any surviving circumsphere at 1e-9 relative,
boundary faces on the convex hull) and rebuilt with a larger super-tetrahedron
if the check fails. The checks work on (tetrahedra x points) blocks of bounded size.

Motion is smooth, so a frame's Delaunay topology usually still holds at the
next frame. delaunay3d takes the previous result as a hint and returns it when
it passes the same self-checks on the new coordinates, which certifies it as
a Delaunay tetrahedralization of them; otherwise it builds afresh. Where the
Delaunay tetrahedralization is unique the two agree. build_frame_meshes
hands each frame's full topology to the next while the gated point set is
unchanged.

The object is rigid, and a rigid motion leaves Delaunay topology unchanged.
When the caller gives the object's pose, build_interact_mesh triangulates
the cloud in the object's frame, where the object's vertices never move. A
DelaunaySeed holds the Bowyer-Watson state with only those vertices
inserted, built once per clip on first use, and a fresh build copies it and
inserts just the agents' joints. One insertion loop serves both builds: a
build of all the points starts from the empty seed, the super-tetrahedron
alone. delaunay3d tries, in order, the certified hint, the seeded build
(checked by the same self-checks) and the fresh build with its escalating
super-tetrahedron margin. Where ties leave the tetrahedralization non-unique
(cospherical box vertices), object-first insertion may break them
differently from a build in input order; both are Delaunay.
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
_MARGIN = 1e3  # super-tetrahedron insphere radius over the points' radius, first try
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


def _boundary_faces(tets: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The faces of (M, 4) tetrahedra over n vertices that one tetrahedron
    owns, each face's indices ascending, and the most tetrahedra sharing a face."""
    faces = np.sort(tets[:, _FACES], axis=2).reshape(-1, 3)
    keys = (faces[:, 0] * n + faces[:, 1]) * n + faces[:, 2]
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return faces[first[counts == 1]], int(counts.max(initial=0))


def _in_circumcircles(p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether p lies within 1e-12 relative in the circumcircle of each
    triangle (a, b, c), as (k, 3) corner rows: a 2x2 Gram solve in its plane,
    row by row as for one triangle alone. Collinear triangles hold nothing."""
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
    """Bowyer-Watson state: tetrahedra in preallocated arrays, plus the data
    their in-sphere predicate needs, computed once when a cell is created.

    coords holds the n_input inserted points, then the four super vertices.
    Slots [0, size) are in use; `alive` marks the cells of the current
    triangulation. An insertion kills its cavity and writes the new cells
    into the freed slots first, so the arrays hardly grow.

    Cells with exactly one super vertex use the point-at-infinity predicate:
    a point is inside the (limit) circumsphere iff it lies strictly on the
    super side of the plane through the three finite vertices, with coplanar
    ties resolved by the in-circle test on that face, one batch for all of a
    point's tied cells. All other cells use the numeric circumsphere. This
    keeps hull coverage independent of where the finite super vertices sit.
    A cavity's boundary is its faces with one owner (integer face keys,
    np.unique counts); each new cell is such a face, ascending, then the point.
    """

    _ARRAYS = ("tets", "alive", "centers", "rad2", "sym", "normals", "faces")

    def __init__(self, super_vertices: np.ndarray):
        """The empty seed: no point yet, one cell, the super-tetrahedron."""
        self.coords = np.asarray(super_vertices, dtype=float)
        self.n_input = 0
        self.size = 0
        self.tets = np.zeros((1, 4), dtype=int)
        self.alive = np.zeros(1, dtype=bool)
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

    def extended(self, points: np.ndarray) -> "_TetStore":
        """A copy of this state with points inserted, in order, after the
        ones it holds; this state is left as it was.

        The new points take the indices before the super vertices, so every
        super index shifts up by len(points).
        """
        k, n = len(points), self.n_input
        out = copy.copy(self)
        out.coords = np.vstack([self.coords[:n], points, self.coords[n:]])
        out.n_input = n + k
        # each insertion into a ball-shaped cavity adds two cells net
        out._reallocate(self.size + 2 * k + 16)
        out.tets[: out.size][out.tets[: out.size] >= n] += k
        for i in range(n, n + k):
            out.insert(i)
        return out

    def insert(self, i: int) -> None:
        """Bowyer-Watson step: replace the cells whose circumsphere holds
        point i by the cone from i over the cavity's boundary."""
        cavity = np.nonzero(self.inside(self.coords[i]))[0]
        if len(cavity) == 0:
            # the tetrahedra tile the super-tetrahedron, so every inserted
            # point sits inside at least one circumsphere
            raise DataError("point outside triangulation; input may be degenerate")
        boundary, _ = _boundary_faces(self.tets[cavity], len(self.coords))
        # the face, then i: a cell's plane and sphere arithmetic follow its vertex order
        self.refill(cavity, np.column_stack([boundary, np.full(len(boundary), i)]))

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
        self.centers[slots], self.rad2[slots] = _circumspheres(self.coords[new])
        # super vertices have the highest indices: a cell with exactly one holds it third
        sym = (new[:, 2] >= self.n_input) & (new[:, 1] < self.n_input)
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

    def inside(self, p: np.ndarray) -> np.ndarray:
        # Ties (cospherical/cocircular within round-off) count as inside, so
        # the newest point consistently re-triangulates degenerate shells
        # instead of leaving contradictory diagonals behind.
        m = self.size
        alive, sym = self.alive[:m], self.sym[:m]
        diff = self.centers[:m] - p
        out = np.einsum("kj,kj->k", diff, diff) <= self.rad2[:m] * (1.0 + 1e-12)
        out &= alive & ~sym
        sym_idx = np.nonzero(alive & sym)[0]
        if len(sym_idx):
            normals = self.normals[sym_idx]
            d = p - self.coords[self.faces[sym_idx, 0]]
            val = np.einsum("kj,kj->k", normals, d)
            scale = np.linalg.norm(normals, axis=1) * (np.linalg.norm(d, axis=1) + 1e-30)
            tol = 1e-12 * scale
            out[sym_idx] = val > tol
            tied = sym_idx[np.abs(val) <= tol]
            if len(tied):
                a, b, c = (self.coords[v] for v in self.faces[tied].T)
                out[tied] = _in_circumcircles(p, a, b, c)
        return out

    def finite_cells(self) -> np.ndarray:
        cells = self.tets[: self.size][self.alive[: self.size]]
        return cells[cells.max(axis=1) < self.n_input]


def _triangulation(points: np.ndarray, store: _TetStore, order: np.ndarray) -> np.ndarray:
    """The store's finite cells as canonical indices into points, where the
    store's point k is points[order[k]]."""
    final = order[store.finite_cells()]
    if len(final):
        # cospherical shells can leave flat slivers behind; they carry no
        # volume and an unbounded circumsphere, so drop them
        final = final[np.abs(tet_volumes(points, final)) > 1e-12 * _extent(points) ** 3]
    return _canonical(final)


def _bowyer_watson(points: np.ndarray, margin: float) -> np.ndarray:
    """A fresh build: every point inserted, in input order, into the empty
    seed of a super-tetrahedron sized from the points."""
    store = _TetStore(_super_tetrahedron(points, margin)).extended(points)
    return _triangulation(points, store, np.arange(len(points)))


def _canonical(tets: np.ndarray) -> np.ndarray:
    """Rows sorted, then rows in lexicographic order: deterministic output."""
    tets = np.sort(tets, axis=1)
    return tets[np.lexsort(tets.T[::-1])]


def _empty_circumsphere_violation(points: np.ndarray, tets: np.ndarray) -> bool:
    if len(tets) == 0:
        return False
    centers, rad2 = _circumspheres(points[tets])
    if not np.all(np.isfinite(rad2)):
        return True  # a surviving degenerate tetrahedron is itself a violation
    rad = np.sqrt(rad2)
    for rows in _row_blocks(len(tets), len(points)):
        # depth (r - d) / r of every point in every sphere, computed in place
        depth = _sq_distances(centers[rows], points)
        np.sqrt(depth, out=depth)
        r = rad[rows, None]
        np.subtract(r, depth, out=depth)
        depth /= r
        inside = depth > INSPHERE_REL_TOL
        inside[np.arange(len(depth))[:, None], tets[rows]] = False  # corners are on the sphere
        if np.any(inside):
            return True
    return False


def _coverage_violation(points: np.ndarray, tets: np.ndarray) -> bool:
    """True when the tetrahedra fail to tile the convex hull.

    The finite triangulation tiles conv(points) exactly when each of its
    boundary faces (faces owned by a single tetrahedron) is a hull face, i.e.
    no point lies strictly on its outer side, and no face is shared by more
    than two tetrahedra.
    """
    if len(tets) == 0:
        return True
    n = len(points)
    boundary, shared = _boundary_faces(tets, n)
    if shared > 2:
        return True
    a = points[boundary[:, 0]]
    normal = _cross(points[boundary[:, 1]] - a, points[boundary[:, 2]] - a)
    tol = 1e-9 * np.linalg.norm(normal, axis=1) * _extent(points)
    for rows in _row_blocks(len(boundary), n):
        base, nrm = a[rows], normal[rows]
        side = np.zeros((len(base), n))
        term = np.empty_like(side)
        for axis in range(3):
            np.subtract(points[None, :, axis], base[:, axis, None], out=term)
            term *= nrm[:, axis, None]
            side += term
        t = tol[rows, None]
        if np.any(np.any(side > t, axis=1) & np.any(side < -t, axis=1)):
            return True
    return False


def _passes_self_checks(points: np.ndarray, tets: np.ndarray) -> bool:
    return not _empty_circumsphere_violation(points, tets) and not _coverage_violation(points, tets)


def _certified_hint(points: np.ndarray, hint) -> np.ndarray | None:
    """The hint in canonical order when it is a valid result for points, else None.

    Valid means what a fresh build guarantees: integer (M, 4) indices, every
    point a vertex, no repeated or flat tetrahedron, and the self-checks pass.
    """
    tets = np.asarray(hint)
    n = len(points)
    if tets.ndim != 2 or tets.shape[1] != 4 or len(tets) == 0 or tets.dtype.kind not in "iu":
        return None
    if tets.min() < 0 or tets.max() >= n or not np.all(np.bincount(tets.ravel(), minlength=n)):
        return None
    tets = _canonical(tets.astype(int))
    if np.any(np.all(tets[1:] == tets[:-1], axis=1)):
        return None
    if np.any(np.abs(tet_volumes(points, tets)) <= 1e-12 * _extent(points) ** 3):
        return None
    return tets if _passes_self_checks(points, tets) else None


class DelaunaySeed:
    """Bowyer-Watson state holding only a rigid object's vertices, in the
    object's own frame.

    A rigid motion leaves Delaunay topology unchanged, so a clip whose
    clouds are triangulated in the object's frame can start every fresh
    build from the object's vertices already inserted, and insert only the
    agents' joints. The state is built on first use, once, inside a
    super-tetrahedron sized from the object; each build copies it.
    """

    def __init__(self, vertices):
        self.vertices = np.array(vertices, dtype=float).reshape(-1, 3)

    @functools.cached_property
    def store(self) -> _TetStore | None:
        """The state (None when the object's vertices cannot seed a build)."""
        try:
            return _TetStore(_super_tetrahedron(self.vertices, _MARGIN)).extended(self.vertices)
        except DataError:
            return None


def _seeded(points: np.ndarray, seed: DelaunaySeed) -> np.ndarray | None:
    """A build of points that ends with the seed's vertices, from the seed's
    state; None when the seed does not apply or the result fails the
    self-checks."""
    n_joints = len(points) - len(seed.vertices)
    if n_joints < 0 or not np.array_equal(points[n_joints:], seed.vertices):
        return None
    store = seed.store
    if store is None or not _inside_super(points[:n_joints], store.coords[store.n_input:]):
        return None
    try:
        store = store.extended(points[:n_joints])
    except DataError:
        return None
    # the store holds the seed's vertices first, then the joints
    order = np.concatenate([np.arange(n_joints, len(points)), np.arange(n_joints)])
    tets = _triangulation(points, store, order)
    return tets if _passes_self_checks(points, tets) else None


def delaunay3d(points, hint=None, seed: DelaunaySeed | None = None) -> np.ndarray:
    """Delaunay tetrahedralization of >= 4 non-coplanar points.

    Returns an (M, 4) int array of indices into the input, rows ascending
    and in lexicographic order; indices of merged duplicates resolve to the
    first occurrence. Every output tetrahedron has an empty circumsphere at
    1e-9 relative tolerance, and together they tile the convex hull.

    hint is an optional candidate result for these points, typically the
    previous frame's tetrahedralization of a moving cloud. It is returned
    when it passes the checks a fresh build must pass (see _certified_hint).
    seed, when the points end with its vertices, starts the build from them
    already inserted. Either is ignored whenever the input holds duplicates.
    A seeded build that fails (a point outside the seed's super-tetrahedron,
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
    if len(unique) == len(pts):
        tets = None if hint is None else _certified_hint(unique, hint)
        if tets is None and seed is not None:
            tets = _seeded(unique, seed)
        if tets is not None:
            return tets

    margin = _MARGIN
    for _ in range(3):
        try:
            tets = _bowyer_watson(unique, margin)
        except DataError:
            margin *= 100.0
            continue
        if _passes_self_checks(unique, tets):
            return index_map[tets]
        margin *= 100.0
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
    delaunay: np.ndarray  # the full Delaunay tetrahedralization the retained set was cut from

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


def build_interact_mesh(
    joints_a: np.ndarray,
    joints_b: np.ndarray | None,
    obj_vertices: np.ndarray,
    rule: RetentionRule | None = None,
    previous: InteractMesh | None = None,
    object_frame: tuple[DelaunaySeed, np.ndarray, np.ndarray] | None = None,
) -> InteractMesh:
    """Delaunay over the combined cloud, filtered by the retention rule.

    joints are world-frame (J, 3) arrays; obj_vertices world-frame and already
    subsampled. Raises EmptyInteractMeshError when nothing survives, which
    signals the caller to skip the Laplacian term for this frame. previous,
    the mesh of the preceding frame, lends its full topology to delaunay3d
    as a hint when its points have the same provenance.

    object_frame, (seed, rotation, position), is the object's pose this
    frame, obj_vertices = seed.vertices @ rotation.T + position. The cloud is
    then triangulated in the object's frame, from the seed's state; the
    mesh's coordinates and Laplacians stay in the world frame.
    """
    rule = rule or RetentionRule()
    joints_a = np.asarray(joints_a, dtype=float).reshape(-1, 3)
    obj_vertices = np.asarray(obj_vertices, dtype=float).reshape(-1, 3)
    joints_b = (
        np.zeros((0, 3)) if joints_b is None else np.asarray(joints_b, dtype=float).reshape(-1, 3)
    )
    if len(obj_vertices) == 0:
        raise EmptyInteractMeshError("no object vertices")

    def gated(joints: np.ndarray) -> np.ndarray:
        if rule.proximity_gate is None or len(joints) == 0:
            return np.arange(len(joints))
        d = np.linalg.norm(joints[:, None, :] - obj_vertices[None, :, :], axis=2).min(axis=1)
        return np.nonzero(d <= rule.proximity_gate)[0]

    idx_a = gated(joints_a)
    idx_b = gated(joints_b)
    coords = np.vstack([joints_a[idx_a], joints_b[idx_b], obj_vertices])
    provenance = tuple(
        [(AGENT_A, int(j)) for j in idx_a]
        + [(AGENT_B, int(j)) for j in idx_b]
        + [(OBJECT, v) for v in range(len(obj_vertices))]
    )
    if len(coords) < 4:
        raise EmptyInteractMeshError(
            f"only {len(coords)} point(s) within the proximity gate"
        )
    hint = None
    if previous is not None and previous.points.provenance == provenance:
        hint = previous.delaunay
    seed, local = None, coords
    if object_frame is not None:
        seed, rotation, position = object_frame
        n_joints = len(coords) - len(obj_vertices)
        local = np.vstack([(coords[:n_joints] - position) @ rotation, seed.vertices])
    try:
        tets = delaunay3d(local, hint=hint, seed=seed)
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
        delaunay=tets,
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
