"""Triangulated surfaces, structured bulk meshes, and mesh extraction.

Surface meshes interpolate the smooth surface (all vertices on it) and
carry the caches the solvers need: hat gradients, areas, outward normals,
element sizes h_T = |T|^(1/2), and edge connectivity.  Bulk meshes are
uniform Kuhn subdivisions of a cube into six tetrahedra per cell;
cutting them with the interpolated signed distance yields the
trace-method surface, and thresholding |d_h| < delta yields the narrow
band.
"""

import numpy as np
import scipy.sparse as sp

from .errors import BeltramiError, BoxTooSmall, EmptyBand, UnsupportedSurface
from .fem import (SIMPLEX_EDGES, assemble_stiffness, edge_vectors, gradient_couplings,
                  triangle_geometry)
from .geometry import row_cross, row_norm

MAX_VERTEX_VALENCE = 32
# the shape-regularity bound on diam / sqrt(area) per facet
SIGMA_MAX = 4.0
# a bisection parent joins the V-cycle ladder once it has LEVEL_RATIO times
# the vertices of the ladder's finest mesh; the first mesh gets a dense
# pseudo-inverse if it has at most COARSE_MAX vertices
LEVEL_RATIO = 3
COARSE_MAX = 1000
# the cut moves a lattice vertex with |d| < SNAP K h^2 (K the surface's
# largest curvature) out to that distance on its side of the surface
SNAP = 0.01


class SurfaceMesh:
    """Closed oriented triangle mesh with per-facet caches.

    Triangle vertex order encodes the refinement edge for bisection: the
    triangle (v0, v1, v2) refines across edge (v1, v2), the edge opposite
    v0.  Builders rotate each triangle so that edge is the longest one.
    ``tri_edges[:, i]`` is the global edge id opposite local vertex i.
    ``kept``: on a ``refine_bisection`` result the parent's ids of the
    triangles kept unchanged, which come first; otherwise None.
    ``hierarchy``: on a ``refine_bisection`` result the ladder (steps,
    base) of earlier meshes in its chain of bisections that
    ``solve_mean_zero``'s V-cycle descends; otherwise None.  ``steps``
    ((P, A), ...) runs from fine to coarse: A (CSR) is a ladder mesh's
    stiffness, P prolongates from it to the ladder mesh above, the first
    P to this mesh.  ``base`` is the dense pseudo-inverse of the last A,
    the chain's first mesh, or None above ``COARSE_MAX`` vertices.
    ``geometry``: the triangles' (grads, areas, normals, diameters) if
    known (``refine_bisection`` carries its kept ones), else ``_measure``'s.
    """

    def __init__(self, vertices, triangles, geometry=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (T, 3)")
        self.kept = self.hierarchy = None
        self.grads, self.areas, self.normals, self.diameters = (
            geometry or _measure(*np.take(self.vertices, self.triangles.T, axis=0)))
        self.h = np.sqrt(self.areas)
        self.edges, self.tri_edges = edge_table(self.triangles)
        self._edge_counts = np.bincount(self.tri_edges.ravel(),
                                        minlength=len(self.edges))
        self._check()

    def _check(self):
        if not self.is_closed_manifold():
            raise BeltramiError("surface mesh is not a closed manifold")
        valence = np.bincount(self.triangles.ravel(), minlength=self.n_vertices)
        if valence.max() > MAX_VERTEX_VALENCE:
            raise BeltramiError(
                f"vertex valence {valence.max()} exceeds {MAX_VERTEX_VALENCE}"
            )
        ratio = (self.diameters / self.h).max()
        if ratio > SIGMA_MAX:
            raise BeltramiError(
                f"shape regularity diam/h = {ratio:.3f} exceeds {SIGMA_MAX}"
            )

    def is_closed_manifold(self):
        return bool(np.all(self._edge_counts == 2))

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def h_max(self):
        return float(self.diameters.max())

    def triangle_coords(self):
        return self.vertices[self.triangles]

    def __repr__(self):
        return (
            f"SurfaceMesh(V={self.n_vertices}, T={self.n_triangles}, "
            f"h_max={self.h_max:.4g})"
        )


def edge_table(simplices):
    """Sorted vertex pairs (E, 2) and per-simplex edge ids (T, k(k-1)/2),
    column j the edge between the local vertices ``SIMPLEX_EDGES[k][j]``
    (on triangles the edge opposite local vertex j).  Pairs are keyed as
    lo * nv + hi, whose sort order is the lexicographic one."""
    local = SIMPLEX_EDGES[simplices.shape[1]]
    a, b = simplices[:, local[:, 0]].T.ravel(), simplices[:, local[:, 1]].T.ravel()
    nv = int(simplices.max()) + 1 if simplices.size else 1
    keys, inv = np.unique(np.minimum(a, b) * nv + np.maximum(a, b), return_inverse=True)
    return np.stack([keys // nv, keys % nv], axis=1), inv.reshape(len(local), len(simplices)).T


def _measure(p0, p1, p2, cross=None):
    """``triangle_geometry`` of the triangles with corners p0, p1, p2 and their diameters."""
    edge = row_norm(edge_vectors(p0, p1, p2))
    diameters = np.maximum(np.maximum(edge[:, 0], edge[:, 1]), edge[:, 2])
    return triangle_geometry(p0, p1, p2, cross) + (diameters,)


def _orient_by_cross(faces, corners, surface):
    """Flip, in place, the faces whose (p1 - p0) x -(p0 - p2) of ``corners`` (p0, p1, p2)
    opposes grad d at the centroid, with their corners and product (that re-formed where
    negation may miss a zero's sign); return ``triangle_geometry``'s arguments."""
    p0, p1, p2 = corners
    cross = row_cross(p1 - p0, -(p0 - p2))
    _, g = surface._grad_raw((p0 + p1 + p2) / 3)
    flip = np.flatnonzero(np.einsum("td,td->t", cross, g) < 0.0)
    faces[flip] = faces[flip][:, [0, 2, 1]]
    p1[flip], p2[flip] = p2[flip], p1[flip]
    cross[flip] *= -1.0
    zero = flip[(cross[flip] == 0.0).any(axis=1)]
    cross[zero] = row_cross(p1[zero] - p0[zero], -(p0[zero] - p2[zero]))
    return p0, p1, p2, cross


def _rotate_longest_edge(vertices, triangles):
    """Rotate vertex order so the longest edge sits opposite v0.

    Rotation preserves orientation; ties break toward the lowest local
    edge index so the result is deterministic.
    """
    lengths = row_norm(edge_vectors(*vertices[triangles.T]))
    # smallest index among edges within a relative whisker of the max
    longest = np.maximum(np.maximum(lengths[:, 0], lengths[:, 1]), lengths[:, 2])
    near = lengths >= (longest * (1.0 - 1e-12))[:, None]
    which = np.argmax(near, axis=1)
    return np.take_along_axis(triangles, (which[:, None] + np.arange(3)) % 3, axis=1)


def _finish_surface_mesh(vertices, triangles, surface):
    _orient_by_cross(triangles, vertices[triangles.T], surface)
    return SurfaceMesh(vertices, _rotate_longest_edge(vertices, triangles))


_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _icosahedron_vertices():
    p = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array(
        [
            [-1, p, 0], [1, p, 0], [-1, -p, 0], [1, -p, 0],
            [0, -1, p], [0, 1, p], [0, -1, -p], [0, 1, -p],
            [p, 0, -1], [p, 0, 1], [-p, 0, -1], [-p, 0, 1],
        ],
        dtype=float,
    )
    return v / np.linalg.norm(v[0])


# The four children of red refinement, the three corners then the middle, as
# indices into (v0, v1, v2, m0, m1, m2) like ``_BISECTION_CHILDREN``.
_RED_CHILDREN = ((0, 5, 4), (1, 3, 5), (2, 4, 3), (3, 4, 5))


def _subdivide_once(vertices, triangles, project):
    """One round of 4-way (red) subdivision with projected midpoints."""
    edges, tri_edges = edge_table(triangles)
    mids = project(0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]]))
    mid_ids = len(vertices) + np.arange(len(edges))
    cols = np.column_stack([triangles, mid_ids[tri_edges]])
    return np.vstack([vertices, mids]), np.concatenate([cols[:, c] for c in _RED_CHILDREN])


def build_sphere_mesh(surface, level):
    """Icosphere interpolating a sphere or ellipsoid: 20 * 4^level facets.

    Starts from the regular icosahedron scaled by ``axis_extents``, then
    subdivides ``level`` times; every vertex is placed by the surface's
    ``_project_raw``.
    """
    if surface.kind not in ("sphere", "ellipsoid"):
        raise UnsupportedSurface(f"no icosphere builder for {surface.kind}")
    vertices = surface._project_raw(_icosahedron_vertices() * surface.axis_extents())
    triangles = _ICO_FACES.copy()
    for _ in range(int(level)):
        vertices, triangles = _subdivide_once(vertices, triangles, surface._project_raw)
    return _finish_surface_mesh(vertices, triangles, surface)


# The two triangles of a quad (v00, v10, v11, v01), as indices into it: row 0
# splits along the diagonal (v00, v11), row 1 along (v10, v01).
_QUAD_SPLITS = np.array([[[0, 1, 2], [0, 2, 3]], [[0, 1, 3], [1, 2, 3]]])


def build_torus_mesh(surface, n_major, n_minor):
    """Structured torus mesh: n_major x n_minor quads of the surface's
    ``_point_at`` grid, split along the shorter diagonal of each quad (ties
    toward the (i,j)-(i+1,j+1) one)."""
    if surface.kind != "torus":
        raise UnsupportedSurface(f"torus builder got {surface.kind}")
    if n_major < 3 or n_minor < 3:
        raise ValueError("need at least 3 segments around each circle")
    phi = 2.0 * np.pi * np.arange(n_major) / n_major
    theta = 2.0 * np.pi * np.arange(n_minor) / n_minor
    vertices = surface._point_at(*np.meshgrid(phi, theta, indexing="ij")).reshape(-1, 3)

    # quad (v00, v10, v11, v01) at each grid vertex: it and its shifts by one
    grid = np.arange(n_major * n_minor).reshape(n_major, n_minor)
    quads = np.stack([grid, np.roll(grid, -1, 0), np.roll(grid, (-1, -1), (0, 1)),
                      np.roll(grid, -1, 1)], axis=-1).reshape(-1, 4)
    diagonals = np.linalg.norm(vertices[quads[:, :2]] - vertices[quads[:, 2:]], axis=-1)
    split = _QUAD_SPLITS[(diagonals[:, 0] > diagonals[:, 1]).astype(np.intp)].reshape(-1, 6)
    tris = np.take_along_axis(quads, split, axis=1).reshape(-1, 3)
    return _finish_surface_mesh(vertices, tris, surface)


# Children of a triangle (v0, v1, v2) by its edge marks (bit i set when the
# edge opposite v_i is split at m_i), as indices into (v0, v1, v2, m0, m1, m2).
# Closure marks the refinement edge of every triangle with a marked edge,
# so only these codes and 0 (the triangle is kept) occur.
_BISECTION_CHILDREN = (
    # bisect across the refinement edge: children (m0, v2, v0), (m0, v0, v1)
    (1, ((3, 2, 0), (3, 0, 1))),
    # also split child (m0, v2, v0) across its edge (v2, v0) at m1
    (3, ((3, 0, 1), (4, 0, 3), (4, 3, 2))),
    # also split child (m0, v0, v1) across its edge (v0, v1) at m2
    (5, ((3, 2, 0), (5, 1, 3), (5, 3, 0))),
    # split all three edges: four grandchildren
    (7, ((4, 0, 3), (4, 3, 2), (5, 1, 3), (5, 3, 0))),
)


def refine_bisection(mesh, marked, surface):
    """Newest-vertex bisection of the marked triangles with conforming
    closure.

    Edge marks propagate until every triangle with a marked edge also has
    its refinement edge (the one opposite v0) marked; triangles then
    split 2-, 3-, or 4-ways.  New vertices are edge midpoints projected
    onto the surface.  Child vertex order encodes the next refinement
    edge, so no rotation is applied.  The result keeps its parent as
    prefixes: the old vertices first, then the midpoints; the unchanged
    triangles first, in their old order (old ids in ``kept``) with their
    geometry rows, then the children, each oriented and measured by one
    cross product.  ``hierarchy`` composes the round's prolongation (the
    identity on the old vertices, each midpoint the mean of its edge's
    ends) onto the parent's first P, or on a parent with ``LEVEL_RATIO``
    times the vertices of the ladder's finest mesh (or none) puts the
    parent's stiffness, assembled as the solve assembles it, on the ladder
    with the round's P above it.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.n_triangles):
        raise IndexError("marked triangle id out of range")
    tri_edges = mesh.tri_edges
    edge_marked = np.zeros(mesh.n_edges, dtype=bool)
    edge_marked[tri_edges[marked, 0]] = True
    while True:
        has_marked = edge_marked[tri_edges].any(axis=1)
        need = has_marked & ~edge_marked[tri_edges[:, 0]]
        if not need.any():
            break
        edge_marked[tri_edges[need, 0]] = True

    split_edges = np.flatnonzero(edge_marked)
    new_id = np.full(mesh.n_edges, -1, dtype=np.int64)
    new_id[split_edges] = mesh.n_vertices + np.arange(len(split_edges))
    mids = surface._project_raw(
        0.5
        * (
            mesh.vertices[mesh.edges[split_edges, 0]]
            + mesh.vertices[mesh.edges[split_edges, 1]]
        )
    )
    vertices = np.vstack([mesh.vertices, mids])

    code = edge_marked[tri_edges] @ (1, 2, 4)
    cols = np.column_stack([mesh.triangles, new_id[tri_edges]])
    out = []
    for case, children in _BISECTION_CHILDREN:
        rows = cols[code == case]
        out.extend(rows[:, child] for child in children)
    kept = np.flatnonzero(code == 0)
    children = np.concatenate(out)
    measured = _measure(*_orient_by_cross(children, np.take(vertices, children.T, axis=0), surface))
    fine = SurfaceMesh(vertices, np.concatenate([mesh.triangles[kept], children]),
                       [np.concatenate([old[kept], new]) for old, new in zip(
                           (mesh.grads, mesh.areas, mesh.normals, mesh.diameters), measured)])
    fine.kept = kept
    n, k = mesh.n_vertices, len(split_edges)
    P = sp.csr_matrix((np.repeat([1.0, 0.5], [n, 2 * k]),
                       np.concatenate([np.arange(n), mesh.edges[split_edges].ravel()]),
                       np.concatenate([np.arange(n), n + 2 * np.arange(k + 1)])), shape=(n + k, n))
    steps, base = mesh.hierarchy or ((), None)
    if steps and n < LEVEL_RATIO * steps[0][0].shape[1]:
        steps = ((P @ steps[0][0], steps[0][1]),) + steps[1:]
    else:
        es = {"grads": mesh.grads, "measures": mesh.areas, "dofs": mesh.triangles}
        A = assemble_stiffness(*gradient_couplings(es, n), (mesh.edges, mesh.tri_edges))
        if not steps and n <= COARSE_MAX:
            lam, V = np.linalg.eigh(A.toarray())  # lam[0] ~ 0: the constants
            W = V[:, 1:] / np.sqrt(lam[1:])
            base = W @ W.T
        steps = ((P, A),) + steps
    fine.hierarchy = steps, base
    return fine


# ---------------------------------------------------------------------------
# bulk meshes
# ---------------------------------------------------------------------------

# Kuhn subdivision of the unit cube: six tetrahedra, one per permutation of
# the axes, each the set {0 <= x_{p2} <= x_{p1} <= x_{p0} <= 1}.  Corners are
# 0, e_{p0}, e_{p0}+e_{p1}, (1,1,1); odd permutations swap the middle pair so
# every tetrahedron is positively oriented.
_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _kuhn_corner_offsets():
    """Per tetrahedron, four corner offsets in {0,1}^3 (positive volume)."""
    steps = np.eye(3, dtype=np.int64)[_KUHN_PERMS]  # rows e_p0, e_p1, e_p2
    offsets = np.cumsum(np.pad(steps, ((0, 0), (1, 0), (0, 0))), axis=1)
    odd = np.linalg.det(offsets[:, 1:]) < 0
    offsets[odd, 1:3] = offsets[odd, 2:0:-1]
    return offsets


_KUHN_OFFSETS = _kuhn_corner_offsets()
# hat gradients of the unit tetrahedra; corner 0 is the origin, so hats
# 1-3 have the (integer) rows of the inverse transposed edge matrix
_KUHN_GRADS = np.zeros((6, 4, 3))
_KUHN_GRADS[:, 1:] = np.rint(np.linalg.inv(_KUHN_OFFSETS[:, 1:])).transpose(0, 2, 1)
_KUHN_GRADS[:, 0] = -_KUHN_GRADS[:, 1:].sum(axis=1)
# Kuhn tetrahedron by the two largest axes (3 p0 + p1) of a cell point
_KUHN_LOOKUP = np.full(9, -1, dtype=np.int64)
_KUHN_LOOKUP[[3 * p[0] + p[1] for p in _KUHN_PERMS]] = np.arange(6)
# offsets of the eight children of a halved block
_OCTANTS = np.stack(np.unravel_index(np.arange(8), (2, 2, 2)), axis=-1)
_TET_EDGES = SIMPLEX_EDGES[4]


# Kuhn corners in chain order 0, e_p0, e_p0+e_p1, 1 (ascending lattice id),
# and the stride rank 2 - p_j of chain step j (the last axis has stride 1)
_KUHN_CHAIN = np.argsort(_KUHN_OFFSETS.sum(axis=2), axis=1)
_KUHN_STEP_RANK = 2 - np.array(_KUHN_PERMS)
# Kuhn corners as cube corners ``_OCTANTS`` (6, 4), Kuhn edges as lattice steps (6, 6)
_KUHN_CUBE = _KUHN_OFFSETS @ (4, 2, 1)
_KUHN_STEPS = np.abs(_KUHN_CUBE[:, _TET_EDGES[:, 1]] - _KUHN_CUBE[:, _TET_EDGES[:, 0]])


def axis_edges(tet_ids, dofs):
    """Kuhn tetrahedra ``tet_ids`` with corners ``dofs`` (E, 4), positions in
    ascending lattice ids: the corners in chain order (E, 4), and their
    lattice axis edges as pairs (M, 2) and ids (E, 3), column j the chain
    edge (c_j, c_j+1).  Keys low * 3 + stride rank sort as the pairs do (a
    larger stride reaches a larger id), so a running count over the keys
    present numbers the edges without a sort."""
    kind = tet_ids % 6
    chain = np.take_along_axis(dofs, _KUHN_CHAIN[kind], axis=1)
    keys = chain[:, :3] * 3 + _KUHN_STEP_RANK[kind]
    present = np.zeros(3 * (int(dofs.max()) + 1), dtype=bool)
    present[keys] = True
    ids = (np.cumsum(present) - 1)[keys]
    lo = np.flatnonzero(present) // 3
    hi = np.empty_like(lo)
    hi[ids] = chain[:, 1:]
    return chain, (np.stack([lo, hi], axis=1), ids)


class BulkMesh:
    """Implicit uniform Kuhn mesh of the cube [-a, a]^3, n cells per axis.

    Vertices are lattice points (linear id (i*(n+1)+j)*(n+1)+k); each cell
    holds six positively oriented tetrahedra, tet id 6 * cell + Kuhn index,
    so corners, coordinates, point location and element geometry are
    closed form in the ids and no array grows with the cell count.
    """

    def __init__(self, half_width, cells_per_axis):
        a = float(half_width)
        n = int(cells_per_axis)
        if n < 1 or a <= 0.0:
            raise ValueError("need positive half width and cell count")
        self.half_width = a
        self.cells_per_axis = n
        self.h = 2.0 * a / n
        self._coords = np.linspace(-a, a, n + 1)
        s = n + 1
        self._corner_ids = _KUHN_OFFSETS @ (s * s, s, 1)  # (6, 4)
        self.tet_diameter = self.h * np.sqrt(3.0)
        self.tet_volume = self.h**3 / 6.0

    @property
    def n_vertices(self):
        return (self.cells_per_axis + 1) ** 3

    @property
    def n_tets(self):
        return 6 * self.cells_per_axis**3

    def tet_vertices(self, ids):
        """Global vertex ids (..., 4) of the given tetrahedra."""
        n = self.cells_per_axis
        i, j, k = np.unravel_index(ids // 6, (n, n, n))
        lowest = (i * (n + 1) + j) * (n + 1) + k
        return lowest[..., None] + self._corner_ids[ids % 6]

    def vertex_points(self, vids):
        """Coordinates (..., 3) of the given lattice vertices."""
        s = self.cells_per_axis + 1
        return self._coords[np.stack(np.unravel_index(vids, (s, s, s)), axis=-1)]

    def tet_grads(self, ids):
        """Hat gradients (E, 4, 3) of the given tetrahedra, by table."""
        return _KUHN_GRADS[ids % 6] / self.h

    def tet_points(self, ids, bary):
        """Points (E, nq, 3) at barycentric nodes (nq, 4), from lattice ids."""
        n = self.cells_per_axis
        cell = np.stack(np.unravel_index(ids // 6, (n, n, n)), axis=-1)
        pts = (self.h * (bary @ _KUHN_OFFSETS))[ids % 6]
        pts += (cell * self.h - self.half_width)[:, None, :]
        return pts

    def point_to_tet(self, points):
        """Id of the tetrahedron containing each point (clamped to the box)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = self.cells_per_axis
        local = (pts + self.half_width) / self.h
        cell = np.clip(np.floor(local).astype(np.int64), 0, n - 1)
        xi = local - cell
        order = np.argsort(-xi, axis=1, kind="stable")
        cube = (cell[:, 0] * n + cell[:, 1]) * n + cell[:, 2]
        tid = cube * 6 + _KUHN_LOOKUP[3 * order[:, 0] + order[:, 1]]
        return tid if np.asarray(points).ndim == 2 else int(tid[0])

    def _near_surface(self, surface, reach):
        """The tetrahedra of every cell that may hold a point with
        |d| <= reach, and d at their corners only.

        Blocks of 2^k cells, about four per axis, are halved down to single
        cells; a block is kept while |d(centre)| <= half-diagonal + reach,
        plus 1e-9 h so that rounding cannot drop a cell.  This is sound only
        because ``surface._distance_raw`` is a true signed distance, hence
        1-Lipschitz; every surface's is exact.  Returns the ascending tet
        ids (E,), their corners (E, 4) as indices into the ascending vertex
        ids (V,), and d at those vertices (V,).  The kept cells' cube corners
        are 8 ascending runs of ids, so one stable merge numbers them, and
        each tet reads its corners off its cell's (``_KUHN_CUBE``).
        """
        n, h = self.cells_per_axis, self.h
        size = 1 << max((n // 4).bit_length() - 1, 0)
        axis = np.arange(0, n, size)
        blocks = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        while len(blocks):
            centre = (blocks + 0.5 * size) * h - self.half_width
            bound = 0.5 * np.sqrt(3.0) * size * h + reach + 1e-9 * h
            blocks = blocks[np.abs(surface._distance_raw(centre)) <= bound]
            if size == 1:
                break
            size //= 2
            blocks = (blocks[:, None, :] + size * _OCTANTS).reshape(-1, 3)
            blocks = blocks[(blocks < n).all(axis=1)]
        s = n + 1
        blocks = blocks[np.argsort(blocks @ (n * n, n, 1))]
        ids = (6 * (blocks @ (n * n, n, 1))[:, None] + np.arange(6)).ravel()
        runs = (blocks @ (s * s, s, 1) + (_OCTANTS @ (s * s, s, 1))[:, None]).ravel()
        order = np.argsort(runs, kind="stable")
        first = np.diff(runs[order], prepend=-1) > 0
        at = np.empty_like(order)
        at[order] = np.cumsum(first) - 1
        vids = runs[order[first]]
        corners = np.take(at.reshape(8, -1).T, _KUHN_CUBE.ravel(), axis=1).reshape(-1, 4)
        return ids, corners, vids, surface._distance_raw(self.vertex_points(vids))

    def __repr__(self):
        return (
            f"BulkMesh(a={self.half_width:g}, n={self.cells_per_axis}, "
            f"tets={self.n_tets})"
        )


def build_bulk_mesh(surface, cells_per_axis, half_width=None):
    """Bulk mesh sized to contain the surface's distance tube.

    The default half width is 1.25 times the largest axis extent plus the
    tube halfwidth; an explicit half width that fails to contain
    extent + tube raises BoxTooSmall.
    """
    extent = float(np.max(surface.axis_extents()))
    needed = extent + surface.tube_halfwidth()
    if half_width is None:
        half_width = 1.25 * needed
    elif half_width < needed:
        raise BoxTooSmall(
            f"half width {half_width:g} < extent + tube = {needed:g}"
        )
    return BulkMesh(half_width, cells_per_axis)


# ---------------------------------------------------------------------------
# cut surface and narrow band
# ---------------------------------------------------------------------------


def _number_rows(ids, corners, vids, d, rows, at=None):
    """The tets ``rows`` of the culled set (``BulkMesh._near_surface``)
    with their DOFs: (tet ids, the culled vertices ``at`` -- by default
    the rows' corners (E, 4) -- as positions in the vertices the rows use,
    those vertices' ascending ids, d there).  The culled vertex ids
    ascend, so counting the used ones numbers them without a sort."""
    dofs = corners[rows]
    used = np.bincount(dofs.ravel(), minlength=len(vids)) > 0
    return ids[rows], (np.cumsum(used) - 1)[dofs if at is None else at], vids[used], d[used]


class CutSurface:
    """Triangulated zero level set of the vertex-interpolated distance.

    Faces lie in bulk tetrahedra (``parent_tet``), face along grad d and own
    their ``triangle_geometry`` (``grads``, ``areas``, ``normals``).  Their
    DOFs are the corners of the cut tetrahedra, ascending in ``active_dofs``,
    with ``d_vertex`` the snapped d there (+-``SNAP`` K h^2 where |d| was
    smaller).  Cut vertex i is (1 - t) x_a + t x_b with t ``tvals[i]`` in
    (0, 1) and a, b its edge's ends ``ends[i]`` by position there.
    A band-marched cut numbers its DOFs as the band: ``n_active_dofs`` is the band's.
    """

    def __init__(self, bulk, vertices, faces, geometry, numbering, tvals):
        self.bulk = bulk
        self.vertices = vertices
        self.faces = faces
        self.grads, self.areas, self.normals = geometry
        self.parent_tet, self.ends, self.active_dofs, self.d_vertex = numbering
        self.tvals = tvals

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_active_dofs(self):
        return len(self.active_dofs)

    def total_area(self):
        return float(self.areas.sum())

    def __repr__(self):
        return f"CutSurface(faces={self.n_faces}, dofs={self.n_active_dofs})"


def _cut_face_table():
    """Per sign pattern (bit k set when vertex k is negative), the cut
    faces as local edge ids (16, 2, 3), -1 padding a missing second face.

    A lone vertex on one side pairs with the other three in ascending
    order; two per side give the quad cycle (na,pa), (na,pb), (nb,pb),
    (nb,pa), split into [0, 1, 2] and [0, 2, 3].
    """
    ids = {tuple(e): k for k, e in enumerate(_TET_EDGES.tolist())}

    def edge(u, v):
        return ids[min(u, v), max(u, v)]

    faces = np.full((16, 2, 3), -1, dtype=np.int64)
    for pattern in range(1, 15):
        neg = [k for k in range(4) if pattern >> k & 1]
        pos = [k for k in range(4) if not pattern >> k & 1]
        if len(neg) == 2:
            (na, nb), (pa, pb) = neg, pos
            c = [edge(na, pa), edge(na, pb), edge(nb, pb), edge(nb, pa)]
            faces[pattern] = [c[0], c[1], c[2]], [c[0], c[2], c[3]]
        else:
            (lone,), others = (neg, pos) if len(neg) == 1 else (pos, neg)
            faces[pattern, 0] = [edge(lone, o) for o in others]
    return faces


_CUT_FACES = _cut_face_table()


def extract_cut_surface(bulk, surface, band=None):
    """March the interpolated signed distance through the bulk mesh.

    Only the cells near the surface are visited: a fresh cull of the cells
    that meet it, or the rows of a ``band`` (every cut tet meets it),
    marched on a copy of its d and numbered as the band.  A vertex with
    |d| < eps = ``SNAP`` K h^2, K the surface's ``max_curvature``, is
    snapped off the surface: its d becomes +-eps on its side (0 counts as
    positive), so the sign pattern is d's own and every crossing edge still
    joins its two ends.  Since d is 1-Lipschitz, the ends' |d| sum to at
    most |e| + eps <= sqrt 3 h + eps (for eps <= h), so every crossing lies
    a share tau >= eps / (sqrt 3 h + eps) of its edge from both ends.  Two
    vertices of each face lie on edges from one tet corner, at shares s1,
    s2; with the third's share s3 they span a tet of volume s1 s2 s3 h^3 / 6
    at a height <= min(s1, s2) sqrt 3 h, so 2|T| >= tau^2 h^2 / sqrt 3: no
    face is a sliver or repeats a vertex.
    One vertex on a side yields a triangle; two yield a planar quad split
    into two triangles along the cycle (ac, ad, bd, bc); faces come in tet
    order.  Crossing edges, keyed lo * 8 + lattice step (bits 4, 2, 1),
    sort as their vertex pairs, so a running count numbers them.  One cross
    product per face orients and measures it.
    """
    eps = SNAP * surface.max_curvature() * bulk.h**2
    ids, tets, vids, d = (bulk._near_surface(surface, 0.0) if band is None else
                          (band.tet_ids, band.dofs, band.active_dofs, band.d_vertex.copy()))
    near = np.abs(d) < eps
    d[near] = np.where(d[near] < 0.0, -eps, eps)
    pattern = (d < 0.0)[tets] @ (1, 2, 4, 8)
    cut = np.flatnonzero((pattern > 0) & (pattern < 15))
    if len(cut) == 0:
        raise BeltramiError("surface does not cut the bulk mesh")
    local = _CUT_FACES[pattern[cut]]
    present = local[:, :, 0] >= 0
    rows = np.repeat(cut, present.sum(axis=1))
    local = local[present]
    ends = tets[rows[:, None, None], _TET_EDGES[local]]  # (F, 3, 2)
    lo, hi = np.minimum(ends[..., 0], ends[..., 1]), np.maximum(ends[..., 0], ends[..., 1])

    keys = 8 * lo + _KUHN_STEPS[(ids[rows] % 6)[:, None], local]
    keyed = np.bincount(keys.ravel(), minlength=8 * len(vids)) > 0
    faces = (np.cumsum(keyed) - 1)[keys]
    a, b = np.empty((2, np.count_nonzero(keyed)), dtype=np.int64)
    a[faces], b[faces] = lo, hi
    del ends, lo, hi, keys, keyed
    tvals = d[a] / (d[a] - d[b])
    pa = bulk.vertex_points(vids[a])
    cut_vertices = pa + tvals[:, None] * (bulk.vertex_points(vids[b]) - pa)

    geo = triangle_geometry(*_orient_by_cross(faces, np.take(cut_vertices, faces.T, axis=0),
                                              surface))
    ends = np.stack([a, b], axis=1)
    numbering = (_number_rows(ids, tets, vids, d, rows, ends) if band is None
                 else (ids[rows], ends, vids, d))
    return CutSurface(bulk, cut_vertices, faces, geo, numbering, tvals)


class BandMesh:
    """Bulk tetrahedra meeting the band {|d_h| < delta} of ``surface``;
    ``dofs`` (E, 4) numbers their corners by position in the ascending
    ``active_dofs``, and ``d_vertex`` holds d there (``_number_rows``)."""

    def __init__(self, bulk, surface, delta, numbering):
        self.bulk, self.surface = bulk, surface
        self.delta = float(delta)
        self.tet_ids, self.dofs, self.active_dofs, self.d_vertex = numbering

    @property
    def n_tets(self):
        return len(self.tet_ids)

    @property
    def n_active_dofs(self):
        return len(self.active_dofs)

    def __repr__(self):
        return f"BandMesh(delta={self.delta:g}, tets={self.n_tets})"


def extract_band(bulk, surface, delta):
    """Select bulk tetrahedra that meet {|d_h| < delta}.

    The half-thickness must satisfy h <= delta <= 2h; membership uses the
    vertex-interpolated distance, so a tetrahedron belongs iff
    min d_h < delta and max d_h > -delta.  Only the cells within delta of
    the surface are visited.
    """
    if not (bulk.h - 1e-12 <= delta <= 2.0 * bulk.h + 1e-12):
        raise ValueError(f"delta={delta:g} outside [h, 2 h] with h={bulk.h:g}")
    ids, tets, vids, d = bulk._near_surface(surface, delta)
    lo, hi = (d < delta)[tets.T], (d > -delta)[tets.T]
    member = (lo[0] | lo[1] | lo[2] | lo[3]) & (hi[0] | hi[1] | hi[2] | hi[3])
    if not member.any():
        raise EmptyBand("no tetrahedra meet the band")
    return BandMesh(bulk, surface, delta, _number_rows(ids, tets, vids, d, member))


# ---------------------------------------------------------------------------
# file export
# ---------------------------------------------------------------------------


def write_off(path, vertices, faces):
    """ASCII OFF with %.12g coordinates; deterministic output."""
    lines = ["OFF", f"{len(vertices)} {len(faces)} 0"]
    lines.extend("%.12g %.12g %.12g" % tuple(v) for v in np.asarray(vertices))
    lines.extend("3 %d %d %d" % tuple(f) for f in np.asarray(faces))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_vtk_tets(path, vertices, tets, title="tetrahedral mesh"):
    """Legacy ASCII VTK unstructured grid of tetrahedra (cell type 10)."""
    vertices = np.asarray(vertices)
    tets = np.asarray(tets)
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(vertices)} double",
    ]
    lines.extend("%.12g %.12g %.12g" % tuple(v) for v in vertices)
    lines.append(f"CELLS {len(tets)} {5 * len(tets)}")
    lines.extend("4 %d %d %d %d" % tuple(t) for t in tets)
    lines.append(f"CELL_TYPES {len(tets)}")
    lines.extend("10" for _ in range(len(tets)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
