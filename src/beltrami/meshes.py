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

from .errors import BeltramiError, BoxTooSmall, EmptyBand, UnsupportedSurface
from .fem import edge_vectors, triangle_geometry

MAX_VERTEX_VALENCE = 32


class SurfaceMesh:
    """Closed oriented triangle mesh with per-facet caches.

    Triangle vertex order encodes the refinement edge for bisection: the
    triangle (v0, v1, v2) refines across edge (v1, v2), the edge opposite
    v0.  Builders rotate each triangle so that edge is the longest one.
    ``tri_edges[:, i]`` is the global edge id opposite local vertex i.
    """

    def __init__(self, vertices, triangles, sigma_max=4.0):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be (T, 3)")
        self.sigma_max = float(sigma_max)
        self._build_caches()
        self._check()

    def _build_caches(self):
        coords = self.triangle_coords()
        self.grads, self.areas, self.normals = triangle_geometry(coords)
        self.diameters = np.linalg.norm(edge_vectors(coords), axis=2).max(axis=1)
        self.h = np.sqrt(self.areas)
        self.edges, self.tri_edges = edge_table(self.triangles)
        self._edge_counts = np.bincount(self.tri_edges.ravel(),
                                        minlength=len(self.edges))

    def _check(self):
        if not self.is_closed_manifold():
            raise BeltramiError("surface mesh is not a closed manifold")
        valence = np.bincount(self.triangles.ravel(), minlength=self.n_vertices)
        if valence.max() > MAX_VERTEX_VALENCE:
            raise BeltramiError(
                f"vertex valence {valence.max()} exceeds {MAX_VERTEX_VALENCE}"
            )
        ratio = (self.diameters / self.h).max()
        if ratio > self.sigma_max:
            raise BeltramiError(
                f"shape regularity diam/h = {ratio:.3f} exceeds {self.sigma_max}"
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

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_triangles

    def triangle_coords(self):
        return self.vertices[self.triangles]

    def __repr__(self):
        return (
            f"SurfaceMesh(V={self.n_vertices}, T={self.n_triangles}, "
            f"h_max={self.h_max:.4g})"
        )


def edge_table(triangles):
    """Sorted vertex pairs (E, 2) and per-triangle edge ids (T, 3), the
    edge ``tri_edges[:, i]`` opposite local vertex i."""
    pairs = np.sort(
        np.concatenate([triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]]),
        axis=1,
    )
    edges, inv = np.unique(pairs, axis=0, return_inverse=True)
    return edges, inv.reshape(3, len(triangles)).T


def _orient_outward(vertices, triangles, surface):
    """Flip triangles whose normal opposes grad d at the centroid."""
    coords = vertices[triangles]
    n = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    _, g = surface._grad_raw(coords.mean(axis=1))
    flip = np.einsum("td,td->t", n, g) < 0.0
    out = triangles.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _rotate_longest_edge(vertices, triangles):
    """Rotate vertex order so the longest edge sits opposite v0.

    Rotation preserves orientation; ties break toward the lowest local
    edge index so the result is deterministic.
    """
    lengths = np.linalg.norm(edge_vectors(vertices[triangles]), axis=2)
    # smallest index among edges within a relative whisker of the max
    near = lengths >= lengths.max(axis=1, keepdims=True) * (1.0 - 1e-12)
    which = np.argmax(near, axis=1)
    rolled = triangles.copy()
    one = which == 1
    two = which == 2
    rolled[one] = triangles[one][:, [1, 2, 0]]
    rolled[two] = triangles[two][:, [2, 0, 1]]
    return rolled


def _finish_surface_mesh(vertices, triangles, surface, rotate=True):
    triangles = _orient_outward(vertices, triangles, surface)
    if rotate:
        triangles = _rotate_longest_edge(vertices, triangles)
    return SurfaceMesh(vertices, triangles)


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


def _subdivide_once(vertices, triangles, project):
    """One round of 4-way (red) subdivision with projected midpoints."""
    edges, tri_edges = edge_table(triangles)
    mids = project(0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]]))
    mid_ids = len(vertices) + np.arange(len(edges))
    m = mid_ids[tri_edges]  # (T, 3): midpoint opposite local vertex i
    v0, v1, v2 = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    children = np.concatenate(
        [
            np.stack([v0, m[:, 2], m[:, 1]], axis=1),
            np.stack([v1, m[:, 0], m[:, 2]], axis=1),
            np.stack([v2, m[:, 1], m[:, 0]], axis=1),
            np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1),
        ]
    )
    return np.vstack([vertices, mids]), children


def build_sphere_mesh(surface, level):
    """Icosphere interpolating a sphere or ellipsoid: 20 * 4^level facets.

    Starts from the regular icosahedron scaled into the surface, then
    subdivides ``level`` times, projecting every new vertex back.
    """
    if surface.kind == "sphere":
        def project(x):
            return surface.radius * x / np.linalg.norm(x, axis=-1, keepdims=True)
        vertices = project(_icosahedron_vertices())
    elif surface.kind == "ellipsoid":
        def project(x):
            return surface._project_raw(x)
        vertices = project(_icosahedron_vertices() * surface.abc)
    else:
        raise UnsupportedSurface(f"no icosphere builder for {surface.kind}")
    triangles = _ICO_FACES.copy()
    for _ in range(int(level)):
        vertices, triangles = _subdivide_once(vertices, triangles, project)
    return _finish_surface_mesh(vertices, triangles, surface)


def build_torus_mesh(surface, n_major, n_minor):
    """Structured torus mesh: n_major x n_minor quads, split along the
    shorter diagonal of each quad (ties toward the (i,j)-(i+1,j+1) one)."""
    if surface.kind != "torus":
        raise UnsupportedSurface(f"torus builder got {surface.kind}")
    if n_major < 3 or n_minor < 3:
        raise ValueError("need at least 3 segments around each circle")
    R, r = surface.major_radius, surface.minor_radius
    phi = 2.0 * np.pi * np.arange(n_major) / n_major
    theta = 2.0 * np.pi * np.arange(n_minor) / n_minor
    P, T = np.meshgrid(phi, theta, indexing="ij")
    rho = R + r * np.cos(T)
    vertices = np.stack(
        [rho * np.cos(P), rho * np.sin(P), r * np.sin(T)], axis=-1
    ).reshape(-1, 3)

    i = np.repeat(np.arange(n_major), n_minor)
    j = np.tile(np.arange(n_minor), n_major)
    ip = (i + 1) % n_major
    jp = (j + 1) % n_minor
    v00 = i * n_minor + j
    v10 = ip * n_minor + j
    v11 = ip * n_minor + jp
    v01 = i * n_minor + jp
    d_a = np.linalg.norm(vertices[v00] - vertices[v11], axis=1)
    d_b = np.linalg.norm(vertices[v10] - vertices[v01], axis=1)
    use_a = d_a <= d_b
    tris = np.empty((2 * len(v00), 3), dtype=np.int64)
    tris[0::2] = np.where(
        use_a[:, None],
        np.stack([v00, v10, v11], axis=1),
        np.stack([v00, v10, v01], axis=1),
    )
    tris[1::2] = np.where(
        use_a[:, None],
        np.stack([v00, v11, v01], axis=1),
        np.stack([v10, v11, v01], axis=1),
    )
    return _finish_surface_mesh(vertices, tris, surface)


def refine_uniform(mesh, surface):
    """Red refinement: every triangle into four, midpoints projected."""
    def project(x):
        return surface._project_raw(x)
    vertices, triangles = _subdivide_once(mesh.vertices, mesh.triangles, project)
    return _finish_surface_mesh(vertices, triangles, surface)


def refine_bisection(mesh, marked, surface):
    """Newest-vertex bisection of the marked triangles with conforming
    closure.

    Edge marks propagate until every triangle with a marked edge also has
    its refinement edge (the one opposite v0) marked; triangles then
    split 2-, 3-, or 4-ways.  New vertices are edge midpoints projected
    onto the surface.  Child vertex order encodes the next refinement
    edge, so no rotation is applied.
    """
    marked = np.unique(np.asarray(marked, dtype=np.int64))
    if marked.size == 0:
        return SurfaceMesh(mesh.vertices.copy(), mesh.triangles.copy(),
                           sigma_max=mesh.sigma_max)
    if marked.min() < 0 or marked.max() >= mesh.n_triangles:
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

    me = edge_marked[tri_edges]  # (T, 3)
    t = mesh.triangles
    v0, v1, v2 = t[:, 0], t[:, 1], t[:, 2]
    m0 = new_id[tri_edges[:, 0]]
    m1 = new_id[tri_edges[:, 1]]
    m2 = new_id[tri_edges[:, 2]]

    keep = ~me[:, 0]
    case_ref = me[:, 0] & ~me[:, 1] & ~me[:, 2]
    case_r1 = me[:, 0] & me[:, 1] & ~me[:, 2]
    case_r2 = me[:, 0] & ~me[:, 1] & me[:, 2]
    case_all = me[:, 0] & me[:, 1] & me[:, 2]

    out = [t[keep]]

    def rows(mask, *cols):
        return np.stack([c[mask] for c in cols], axis=1)

    # bisect across the refinement edge: children (m0, v2, v0), (m0, v0, v1)
    out.append(rows(case_ref, m0, v2, v0))
    out.append(rows(case_ref, m0, v0, v1))
    # also split child (m0, v2, v0) across its edge (v2, v0) at m1
    out.append(rows(case_r1, m0, v0, v1))
    out.append(rows(case_r1, m1, v0, m0))
    out.append(rows(case_r1, m1, m0, v2))
    # also split child (m0, v0, v1) across its edge (v0, v1) at m2
    out.append(rows(case_r2, m0, v2, v0))
    out.append(rows(case_r2, m2, v1, m0))
    out.append(rows(case_r2, m2, m0, v0))
    # split all three edges: four grandchildren
    out.append(rows(case_all, m1, v0, m0))
    out.append(rows(case_all, m1, m0, v2))
    out.append(rows(case_all, m2, v1, m0))
    out.append(rows(case_all, m2, m0, v0))

    triangles = np.concatenate(out)
    return _finish_surface_mesh(vertices, triangles, surface, rotate=False)


# ---------------------------------------------------------------------------
# bulk meshes
# ---------------------------------------------------------------------------

# Kuhn subdivision of the unit cube: six tetrahedra, one per permutation of
# the axes, each the set {0 <= x_{p2} <= x_{p1} <= x_{p0} <= 1}.  Corners are
# 0, e_{p0}, e_{p0}+e_{p1}, (1,1,1); odd permutations swap the middle pair so
# every tetrahedron is positively oriented.
_KUHN_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _perm_parity(p):
    return (p[0], p[1], p[2]) in ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def _kuhn_corner_offsets():
    """Per tetrahedron, four corner offsets in {0,1}^3 (positive volume)."""
    offsets = np.zeros((6, 4, 3), dtype=np.int64)
    for k, p in enumerate(_KUHN_PERMS):
        c = np.zeros((4, 3), dtype=np.int64)
        c[1][p[0]] = 1
        c[2][p[0]] = 1
        c[2][p[1]] = 1
        c[3][:] = 1
        if not _perm_parity(p):
            c[[1, 2]] = c[[2, 1]]
        offsets[k] = c
    return offsets


_KUHN_OFFSETS = _kuhn_corner_offsets()
_KUHN_INDEX = {p: k for k, p in enumerate(_KUHN_PERMS)}


class BulkMesh:
    """Uniform Kuhn mesh of the cube [-a, a]^3 with n cells per axis.

    Vertices are lattice points (linear id (i*(n+1)+j)*(n+1)+k); each cell
    holds six positively oriented tetrahedra, so containing-tetrahedron
    lookup is closed form.
    """

    def __init__(self, half_width, cells_per_axis):
        a = float(half_width)
        n = int(cells_per_axis)
        if n < 1 or a <= 0.0:
            raise ValueError("need positive half width and cell count")
        self.half_width = a
        self.cells_per_axis = n
        self.h = 2.0 * a / n
        coords = np.linspace(-a, a, n + 1)
        I, J, K = np.meshgrid(coords, coords, coords, indexing="ij")
        self.vertices = np.stack([I, J, K], axis=-1).reshape(-1, 3)

        i = np.arange(n)
        ci, cj, ck = np.meshgrid(i, i, i, indexing="ij")
        ci, cj, ck = ci.ravel(), cj.ravel(), ck.ravel()
        s = n + 1
        off = _KUHN_OFFSETS  # (6, 4, 3)
        vi = ci[:, None, None] + off[None, :, :, 0]
        vj = cj[:, None, None] + off[None, :, :, 1]
        vk = ck[:, None, None] + off[None, :, :, 2]
        self.tets = ((vi * s + vj) * s + vk).reshape(-1, 4)
        self.tet_diameter = self.h * np.sqrt(3.0)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    def point_to_tet(self, points):
        """Id of the tetrahedron containing each point (clamped to the box)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = self.cells_per_axis
        local = (pts + self.half_width) / self.h
        cell = np.clip(np.floor(local).astype(np.int64), 0, n - 1)
        xi = local - cell
        order = np.argsort(-xi, axis=1, kind="stable")
        perm_idx = np.empty(len(pts), dtype=np.int64)
        for k, p in _KUHN_INDEX.items():
            perm_idx[(order == np.array(k)).all(axis=1)] = p
        cube = (cell[:, 0] * n + cell[:, 1]) * n + cell[:, 2]
        tid = cube * 6 + perm_idx
        return tid if np.asarray(points).ndim == 2 else int(tid[0])

    def __repr__(self):
        return (
            f"BulkMesh(a={self.half_width:g}, n={self.cells_per_axis}, "
            f"tets={self.n_tets})"
        )


def build_bulk_mesh(surface, cells_per_axis, half_width=None, margin=1.25):
    """Bulk mesh sized to contain the surface's distance tube.

    The default half width covers the largest axis extent plus the tube
    halfwidth, scaled by ``margin``; an explicit half width that fails to
    contain extent + tube raises BoxTooSmall.
    """
    extent = float(np.max(surface.axis_extents()))
    needed = extent + surface.tube_halfwidth()
    if half_width is None:
        half_width = margin * needed
    elif half_width < needed:
        raise BoxTooSmall(
            f"half width {half_width:g} < extent + tube = {needed:g}"
        )
    return BulkMesh(half_width, cells_per_axis)


# ---------------------------------------------------------------------------
# cut surface and narrow band
# ---------------------------------------------------------------------------


class CutSurface:
    """Triangulated zero level set of the vertex-interpolated distance.

    Faces live inside bulk tetrahedra (``parent_tet``), are oriented with
    grad d, and their degrees of freedom are the vertices of cut bulk
    tetrahedra (``active_dofs``).
    """

    def __init__(self, bulk, vertices, faces, parent_tet, d_vertex, n_degenerate):
        self.bulk = bulk
        self.vertices = vertices
        self.faces = faces
        self.parent_tet = parent_tet
        self.d_vertex = d_vertex
        self.n_degenerate = int(n_degenerate)
        coords = vertices[faces]
        n = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
        two_area = np.linalg.norm(n, axis=1)
        self.areas = 0.5 * two_area
        self.normals = n / two_area[:, None]
        self.h_face = np.full(len(faces), bulk.tet_diameter)
        self.cut_tets = np.unique(parent_tet)
        self.active_dofs = np.unique(bulk.tets[self.cut_tets])

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


_LONE_OTHERS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def extract_cut_surface(bulk, surface):
    """March the interpolated signed distance through the bulk mesh.

    Vertex distances within 1e-12 h of zero are nudged positive so every
    tetrahedron falls into a strict sign pattern.  One vertex on a side
    yields a triangle; two yield a planar quad split into two triangles
    along the cycle (ac, ad, bd, bc).  Faces with area below 1e-14 h^2
    are dropped and counted in ``n_degenerate``.
    """
    d = surface._distance_raw(bulk.vertices).copy()
    eps = 1e-12 * bulk.h
    d[np.abs(d) < eps] = eps
    dv = d[bulk.tets]
    neg = dv < 0.0
    cnt = neg.sum(axis=1)

    key_list = []
    parent_list = []

    def lone_faces(tet_ids, lone_local):
        others = _LONE_OTHERS[lone_local]  # (M, 3)
        tets = bulk.tets[tet_ids]
        lone_glob = tets[np.arange(len(tet_ids)), lone_local]
        other_glob = np.take_along_axis(tets, others, axis=1)
        keys = np.stack(
            [np.repeat(lone_glob, 3), other_glob.ravel()], axis=1
        ).reshape(len(tet_ids), 3, 2)
        key_list.append(keys)
        parent_list.append(np.repeat(tet_ids, 1))

    for count in (1, 3):
        ids = np.flatnonzero(cnt == count)
        if len(ids):
            pattern = neg[ids] if count == 1 else ~neg[ids]
            lone_faces(ids, np.argmax(pattern, axis=1))

    quad_ids = np.flatnonzero(cnt == 2)
    quad_keys = None
    if len(quad_ids):
        order = np.argsort(~neg[quad_ids], axis=1, kind="stable")
        tets = bulk.tets[quad_ids]
        na = np.take_along_axis(tets, order[:, 0:1], axis=1)[:, 0]
        nb = np.take_along_axis(tets, order[:, 1:2], axis=1)[:, 0]
        pa = np.take_along_axis(tets, order[:, 2:3], axis=1)[:, 0]
        pb = np.take_along_axis(tets, order[:, 3:4], axis=1)[:, 0]
        # crossing cycle around the quad: (na,pa), (na,pb), (nb,pb), (nb,pa)
        quad_keys = np.stack(
            [
                np.stack([na, pa], axis=1),
                np.stack([na, pb], axis=1),
                np.stack([nb, pb], axis=1),
                np.stack([nb, pa], axis=1),
            ],
            axis=1,
        )  # (Q, 4, 2)

    tri_keys = (
        np.concatenate(key_list) if key_list else np.empty((0, 3, 2), np.int64)
    )
    tri_parents = (
        np.concatenate(parent_list) if parent_list else np.empty(0, np.int64)
    )

    all_keys = [tri_keys.reshape(-1, 2)]
    if quad_keys is not None:
        all_keys.append(quad_keys.reshape(-1, 2))
    flat = np.sort(np.concatenate(all_keys), axis=1)
    if len(flat) == 0:
        raise BeltramiError("surface does not cut the bulk mesh")
    uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
    da = d[uniq[:, 0]]
    db = d[uniq[:, 1]]
    tvals = da / (da - db)
    cut_vertices = (
        bulk.vertices[uniq[:, 0]]
        + tvals[:, None] * (bulk.vertices[uniq[:, 1]] - bulk.vertices[uniq[:, 0]])
    )

    n_tri = tri_keys.shape[0]
    tri_vert = inverse[: 3 * n_tri].reshape(n_tri, 3)
    faces = [tri_vert]
    parents = [tri_parents]
    if quad_keys is not None:
        qv = inverse[3 * n_tri :].reshape(-1, 4)
        faces.append(qv[:, [0, 1, 2]])
        faces.append(qv[:, [0, 2, 3]])
        parents.append(quad_ids)
        parents.append(quad_ids)
    faces = np.concatenate(faces)
    parents = np.concatenate(parents)

    coords = cut_vertices[faces]
    n = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    two_area = np.linalg.norm(n, axis=1)
    good = two_area >= 2e-14 * bulk.h**2
    n_degenerate = int((~good).sum())
    faces = faces[good]
    parents = parents[good]
    n = n[good]

    _, g = surface._grad_raw(cut_vertices[faces].mean(axis=1))
    flip = np.einsum("fd,fd->f", n, g) < 0.0
    faces[flip] = faces[flip][:, [0, 2, 1]]

    return CutSurface(bulk, cut_vertices, faces, parents, d, n_degenerate)


class BandMesh:
    """Tetrahedra meeting the band {|d_h| < delta} of the bulk mesh."""

    def __init__(self, bulk, delta, tet_ids, d_vertex):
        self.bulk = bulk
        self.delta = float(delta)
        self.tet_ids = tet_ids
        self.d_vertex = d_vertex
        self.active_dofs = np.unique(bulk.tets[tet_ids])

    @property
    def n_tets(self):
        return len(self.tet_ids)

    @property
    def n_active_dofs(self):
        return len(self.active_dofs)

    def tets(self):
        return self.bulk.tets[self.tet_ids]

    def __repr__(self):
        return f"BandMesh(delta={self.delta:g}, tets={self.n_tets})"


def extract_band(bulk, surface, delta, window=(1.0, 2.0)):
    """Select bulk tetrahedra that meet {|d_h| < delta}.

    The half-thickness must satisfy C1 h <= delta <= C2 h (default window
    [1, 2]); membership uses the vertex-interpolated distance, so a
    tetrahedron belongs iff min d_h < delta and max d_h > -delta.
    """
    lo, hi = window
    if not (lo * bulk.h - 1e-12 <= delta <= hi * bulk.h + 1e-12):
        raise ValueError(
            f"delta={delta:g} outside [{lo:g} h, {hi:g} h] with h={bulk.h:g}"
        )
    d = surface._distance_raw(bulk.vertices)
    dv = d[bulk.tets]
    keep = (dv.min(axis=1) < delta) & (dv.max(axis=1) > -delta)
    ids = np.flatnonzero(keep)
    if len(ids) == 0:
        raise EmptyBand("no tetrahedra meet the band")
    return BandMesh(bulk, delta, ids, d)


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
