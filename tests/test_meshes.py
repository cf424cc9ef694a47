"""Surface meshing, bisection refinement, bulk lattices, cuts, and bands."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from beltrami import (
    BoxTooSmall,
    BulkMesh,
    Ellipsoid,
    EmptyBand,
    NarrowBandProblem,
    Sphere,
    SurfaceMesh,
    Torus,
    TraceProblem,
    UnsupportedSurface,
    build_bulk_mesh,
    build_sphere_mesh,
    build_torus_mesh,
    extract_band,
    extract_cut_surface,
    narrowband_solve,
    refine_bisection,
    trace_solve,
    write_off,
    write_vtk_tets,
)
from beltrami.errors import BeltramiError
from beltrami.fem import (
    TET_DEGREE2,
    TET_DEGREE4,
    assemble_stiffness,
    gradient_couplings,
    triangle_geometry,
)
from beltrami.harness import surface_mesh_for_level
from beltrami.meshes import (
    _ICO_FACES,
    LEVEL_RATIO,
    SIGMA_MAX,
    SNAP,
    _finish_surface_mesh,
    axis_edges,
    edge_table,
)
from beltrami.narrowband import _band_quadrature, _band_stiffness, narrowband_forcing
from beltrami.parametric import ParametricProblem, parametric_assemble
from beltrami.trace import cut_face_set, trace_assemble

import oracles


# ---------------------------------------------------------------------------
# surface meshes
# ---------------------------------------------------------------------------


def test_icosphere_counts_and_euler():
    s = Sphere(1.0)
    expected = [(12, 20), (42, 80), (162, 320)]
    for level, (nv, nt) in enumerate(expected):
        mesh = build_sphere_mesh(s, level)
        assert mesh.n_vertices == nv
        assert mesh.n_triangles == nt
        assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 2
        assert mesh.is_closed_manifold()
        # vertices on the sphere, normals outward
        r = np.linalg.norm(mesh.vertices, axis=1)
        assert np.abs(r - 1.0).max() < 1e-12
        centers = mesh.vertices[mesh.triangles].mean(axis=1)
        assert (np.einsum("td,td->t", mesh.normals, centers) > 0).all()


def test_icosphere_h_halves_per_level():
    s = Sphere(1.0)
    hs = [build_sphere_mesh(s, lvl).h_max for lvl in range(4)]
    ratios = np.array(hs[:-1]) / np.array(hs[1:])
    # projection to the sphere stretches the coarsest children; the ratio
    # approaches 2 from below as curvature resolves
    assert np.all(ratios > 1.6) and np.all(ratios < 2.1)
    assert ratios[-1] > 1.9


def test_torus_mesh_euler_and_surface():
    t = Torus(1.0, 0.4)
    mesh = build_torus_mesh(t, 24, 12)
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 0
    assert mesh.n_vertices == 24 * 12
    assert np.abs(t.distance(mesh.vertices)).max() < 1e-12
    centers = t.closest_point(mesh.vertices[mesh.triangles].mean(axis=1))
    _, nu = t._grad_raw(centers)
    assert (np.einsum("td,td->t", mesh.normals, nu) > 0.5).all()


def test_shape_regularity_enforced():
    # a long sliver violates diam / sqrt(area) <= SIGMA_MAX
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.02, 0.0], [0.5, -0.02, 0.0],
    ])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 2, 3], [1, 3, 2]])
    with pytest.raises(BeltramiError):
        SurfaceMesh(v, tris)


@pytest.mark.parametrize("radius", [0.7, 1.0, 2.3])
def test_icosphere_is_the_radial_icosphere(radius):
    """Placing the sphere's vertices with its ``_project_raw`` keeps the
    radially projected icosphere: the same triangles, and vertices within
    4e-16 R of it."""
    s = Sphere(radius)
    for level in range(5):
        v, t = oracles.radial_icosphere(radius, level, _ICO_FACES)
        ref = _finish_surface_mesh(v, t, s)
        mesh = build_sphere_mesh(s, level)
        assert np.array_equal(mesh.triangles, ref.triangles)
        assert np.abs(mesh.vertices - ref.vertices).max() <= 4e-16 * radius


@pytest.mark.parametrize("radii", [(1.0, 0.4), (2.0, 0.3)])
@pytest.mark.parametrize("n_major, n_minor", [(7, 3), (8, 4), (12, 5), (16, 8), (32, 16)])
def test_torus_mesh_is_the_angle_grid(radii, n_major, n_minor):
    """The grid placed by ``Torus._point_at`` and split by ``_QUAD_SPLITS``
    is the angle grid with its diagonals chosen one by one, bit for bit."""
    t = Torus(*radii)
    ref = _finish_surface_mesh(*oracles.torus_grid(*radii, n_major, n_minor), t)
    mesh = build_torus_mesh(t, n_major, n_minor)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.triangles, ref.triangles)


@pytest.mark.parametrize("build, surface", [
    (lambda s: build_sphere_mesh(s, 1), Torus(1.0, 0.4)),
    (lambda s: build_torus_mesh(s, 8, 4), Sphere(1.0)),
    (lambda s: build_torus_mesh(s, 8, 4), Ellipsoid(1.3, 1.0, 0.8)),
], ids=["icosphere-torus", "grid-sphere", "grid-ellipsoid"])
def test_builders_refuse_the_wrong_kind(build, surface):
    with pytest.raises(UnsupportedSurface):
        build(surface)


def _bipyramid(n):
    """Closed mesh of an n-gon bipyramid: both apexes have valence n."""
    ring = np.arange(n)
    angle = 2.0 * np.pi * ring / n
    v = np.vstack([np.stack([np.cos(angle), np.sin(angle), 0.0 * angle], axis=1),
                   [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    nxt = (ring + 1) % n
    return v, np.concatenate([np.stack([np.full(n, n), ring, nxt], axis=1),
                              np.stack([np.full(n, n + 1), nxt, ring], axis=1)])


@pytest.mark.parametrize("mesh, message", [
    ((np.eye(3), [[0, 1, 2]]), "not a closed manifold"),
    (_bipyramid(33), "valence 33"),
], ids=["open", "valence-33"])
def test_surface_mesh_refuses_bad_connectivity(mesh, message):
    with pytest.raises(BeltramiError, match=message):
        SurfaceMesh(*mesh)


def test_refine_uniform_quadruples():
    """Each icosphere level is a red refinement of the one below."""
    s = Sphere(1.0)
    m0 = build_sphere_mesh(s, 0)
    m1 = build_sphere_mesh(s, 1)
    assert m1.n_triangles == 4 * m0.n_triangles
    # the coarser vertices come first, the midpoints are projected
    assert np.array_equal(m1.vertices[:m0.n_vertices], m0.vertices)
    assert np.abs(np.linalg.norm(m1.vertices, axis=1) - 1.0).max() < 1e-12
    # total area increases toward 4 pi from below
    assert m0.areas.sum() < m1.areas.sum() < 4 * np.pi


def test_bisection_marked_elements_shrink():
    s = Sphere(1.0)
    mesh = build_sphere_mesh(s, 1)
    marked = [0, 5, 17]
    old_areas = mesh.areas.copy()
    fine = refine_bisection(mesh, marked, s)
    assert fine.n_triangles > mesh.n_triangles
    assert fine.is_closed_manifold()
    assert fine.n_vertices - fine.n_edges + fine.n_triangles == 2
    assert np.abs(np.linalg.norm(fine.vertices, axis=1) - 1.0).max() < 1e-12
    # conformity closure refines at least the marked count extra triangles
    assert fine.n_triangles >= mesh.n_triangles + len(marked)
    assert fine.areas.max() <= old_areas.max() + 1e-12


@pytest.mark.parametrize("mark", [-1, 80])
def test_bisection_refuses_out_of_range_marks(mark):
    s = Sphere(1.0)
    with pytest.raises(IndexError, match="out of range"):
        refine_bisection(build_sphere_mesh(s, 1), [0, mark], s)


def test_bisection_keeps_shape_regularity():
    """Newest-vertex bisection cycles through finitely many shapes."""
    s = Sphere(1.0)
    mesh = build_sphere_mesh(s, 0)
    rng = np.random.default_rng(4)
    for _ in range(6):
        marked = rng.choice(mesh.n_triangles, size=max(mesh.n_triangles // 5, 1),
                            replace=False)
        mesh = refine_bisection(mesh, marked, s)
    assert (mesh.diameters / mesh.h).max() <= SIGMA_MAX
    assert mesh.is_closed_manifold()


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "torus"]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 5),
)
def test_bisection_keeps_topology_and_edge_table(kind, seed, rounds):
    """Random marks: closed manifold, Euler characteristic, edge table
    opposite each local vertex, and vertices on the surface."""
    if kind == "sphere":
        surface, chi = Sphere(1.3), 2
        mesh = build_sphere_mesh(surface, 0)
    else:
        surface, chi = Torus(1.0, 0.4), 0
        mesh = build_torus_mesh(surface, 8, 4)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        marked = np.flatnonzero(rng.random(mesh.n_triangles) < rng.uniform(0.05, 0.5))
        mesh = refine_bisection(mesh, marked, surface)
    assert mesh.is_closed_manifold()
    assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == chi
    t = mesh.triangles
    for i in range(3):
        opposite = np.sort(t[:, [(i + 1) % 3, (i + 2) % 3]], axis=1)
        assert np.array_equal(mesh.edges[mesh.tri_edges[:, i]], opposite)
    assert np.abs(surface.distance(mesh.vertices)).max() <= 1e-12


def test_bisection_empty_marking_is_identity():
    s = Sphere(1.0)
    mesh = build_sphere_mesh(s, 1)
    same = refine_bisection(mesh, [], s)
    assert same.n_triangles == mesh.n_triangles
    assert np.array_equal(same.kept, np.arange(mesh.n_triangles))


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "torus"]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 4),
)
def test_bisection_keeps_a_prefix(kind, seed, rounds):
    """Random marks: the old vertices are a bit-equal prefix of the new
    ones; the kept triangles come first, in their old order, equal to the
    old triangles at the reported ids; no triangle after them is an old
    one, and no marked triangle is kept."""
    if kind == "sphere":
        surface = Sphere(1.3)
        mesh = build_sphere_mesh(surface, 1)
    else:
        surface = Torus(1.0, 0.4)
        mesh = build_torus_mesh(surface, 8, 4)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        marked = np.flatnonzero(rng.random(mesh.n_triangles) < rng.uniform(0.05, 0.5))
        fine = refine_bisection(mesh, marked, surface)
        kept = fine.kept
        assert np.array_equal(fine.vertices[:mesh.n_vertices], mesh.vertices)
        assert np.all(np.diff(kept) > 0)
        assert np.array_equal(fine.triangles[:len(kept)], mesh.triangles[kept])
        assert not np.isin(marked, kept).any()
        old = set(map(tuple, np.sort(mesh.triangles, axis=1)))
        assert old.isdisjoint(map(tuple, np.sort(fine.triangles[len(kept):], axis=1)))
        mesh = fine


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "torus", "ellipsoid"]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 4),
)
def test_bisection_carries_the_kept_facets_caches(kind, seed, rounds):
    """Random marks: each refined mesh's caches equal those a fresh
    ``SurfaceMesh`` of its vertices and triangles measures (compared with
    ``==``: a negated zero may differ in sign), and its children are
    oriented as ``oracles.orient_outward`` orients them.  A third of the
    first mesh's triangles are turned inward, so the children of those
    are flipped outward."""
    if kind == "torus":
        surface = Torus(1.0, 0.4)
        mesh = build_torus_mesh(surface, 8, 4)
    else:
        surface = Sphere(1.3) if kind == "sphere" else Ellipsoid(1.3, 1.0, 0.8)
        mesh = build_sphere_mesh(surface, 1)
    rng = np.random.default_rng(seed)
    inward = (rng.random(mesh.n_triangles) < 1 / 3)[:, None]
    mesh = SurfaceMesh(mesh.vertices, np.where(inward, mesh.triangles[:, [0, 2, 1]], mesh.triangles))
    for _ in range(rounds):
        marked = np.flatnonzero(rng.random(mesh.n_triangles) < rng.uniform(0.05, 0.5))
        mesh = refine_bisection(mesh, marked, surface)
        fresh = SurfaceMesh(mesh.vertices, mesh.triangles)
        for name in ("grads", "areas", "normals", "diameters", "h", "edges", "tri_edges"):
            assert np.array_equal(getattr(mesh, name), getattr(fresh, name)), name
        children = mesh.triangles[len(mesh.kept):]
        oriented = oracles.orient_outward(mesh.vertices, children,
                                          lambda x: surface._grad_raw(x)[1])
        assert np.array_equal(oriented, children)


@pytest.mark.parametrize("kind", ["sphere", "torus"])
def test_bisection_measures_and_orients_only_the_children(kind, monkeypatch):
    """A refine of a refined mesh sends only its children's rows through
    ``triangle_geometry``, and one ``_grad_raw`` point per child after the
    midpoints' projection (which calls it on the sphere and torus)."""
    from beltrami import meshes

    if kind == "torus":
        surface = Torus(1.0, 0.4)
        mesh = build_torus_mesh(surface, 8, 4)
    else:
        surface = Sphere(1.3)
        mesh = build_sphere_mesh(surface, 1)
    mesh = refine_bisection(mesh, np.arange(0, mesh.n_triangles, 5), surface)
    rows, points = [], []
    geometry, grad_raw = meshes.triangle_geometry, surface._grad_raw

    def counted_geometry(p0, *rest):
        rows.append(len(p0))
        return geometry(p0, *rest)

    def counted_grad(x):
        points.append(len(x))
        return grad_raw(x)

    monkeypatch.setattr(meshes, "triangle_geometry", counted_geometry)
    monkeypatch.setattr(surface, "_grad_raw", counted_grad)
    fine = refine_bisection(mesh, np.arange(0, mesh.n_triangles, 7), surface)
    n_children = fine.n_triangles - len(fine.kept)
    assert 0 < n_children < fine.n_triangles
    assert rows == [n_children]
    assert points == [fine.n_vertices - mesh.n_vertices, n_children]


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "torus"]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(1, 4),
)
def test_bisection_hierarchy_is_the_per_level_product(kind, seed, rounds):
    """Random marks: the ladder holds the chain's first mesh and each later
    parent with ``LEVEL_RATIO`` times the vertices of the ladder mesh below
    it.  Each stored prolongation equals the dense product of the per-round
    maps (``oracles.per_level_hierarchy``) exactly, its entries being
    dyadic; each stored operator equals its mesh's stiffness as the solve
    assembles it; and the base inverts the first one on mean-zero vectors."""
    if kind == "sphere":
        surface = Sphere(1.3)
        mesh = build_sphere_mesh(surface, 1)
    else:
        surface = Torus(1.0, 0.4)
        mesh = build_torus_mesh(surface, 8, 4)
    assert mesh.hierarchy is None
    rng = np.random.default_rng(seed)
    meshes = [mesh]
    for _ in range(rounds):
        marked = np.flatnonzero(rng.random(mesh.n_triangles) < rng.uniform(0.05, 0.5))
        mesh = refine_bisection(mesh, marked, surface)
        meshes.append(mesh)
    maps = oracles.per_level_hierarchy(meshes, surface._project_raw)
    rungs = [0]
    for i in range(1, rounds):
        if meshes[i].n_vertices >= LEVEL_RATIO * meshes[rungs[-1]].n_vertices:
            rungs.append(i)
    steps, base = mesh.hierarchy
    assert len(steps) == len(rungs)
    for (P, A), lo, hi in zip(steps, rungs[::-1], [rounds] + rungs[:0:-1]):
        product = np.eye(meshes[lo].n_vertices)
        for step in maps[lo:hi]:
            product = step @ product
        assert np.array_equal(P.toarray(), product)
        solved = parametric_assemble(ParametricProblem(surface, meshes[lo]))[0]
        assert np.array_equal(A.toarray(), solved.toarray())
    r = rng.normal(size=meshes[0].n_vertices)
    r -= r.mean()
    A = steps[-1][1]
    np.testing.assert_allclose(A @ (base @ r), r, rtol=0, atol=1e-11 * np.linalg.norm(r))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "ellipsoid", "torus"]),
    size=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(0, 3),
)
def test_edge_table_matches_unique_rows(kind, size, seed, rounds):
    """The key-encoded edge table equals the unique-rows one, array for
    array, on icospheres, torus meshes and bisection-refined meshes."""
    if kind == "torus":
        surface = Torus(1.0, 0.4)
        mesh = build_torus_mesh(surface, 8 + 4 * size, 4 + 2 * size)
    else:
        surface = Sphere(1.3) if kind == "sphere" else Ellipsoid(1.3, 1.0, 0.8)
        mesh = build_sphere_mesh(surface, size)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        marked = np.flatnonzero(rng.random(mesh.n_triangles) < rng.uniform(0.05, 0.5))
        mesh = refine_bisection(mesh, marked, surface)
    edges, tri_edges = edge_table(mesh.triangles)
    ref_edges, ref_tri_edges = oracles.unique_rows_edge_table(mesh.triangles)
    assert np.array_equal(edges, ref_edges)
    assert np.array_equal(tri_edges, ref_tri_edges)


def test_edge_table_sorts_keys_not_rows(monkeypatch):
    """Mesh building and refinement never take np.unique over rows, which
    argsorts a void-dtype view of the vertex pairs."""
    unique = np.unique

    def keys_only(ar, *args, **kwargs):
        if kwargs.get("axis") is not None:
            raise AssertionError("np.unique called with an axis")
        return unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", keys_only)
    surface = Torus(1.0, 0.4)
    mesh = build_torus_mesh(surface, 16, 8)
    mesh = refine_bisection(mesh, np.arange(0, mesh.n_triangles, 3), surface)
    assert mesh.is_closed_manifold()


# ---------------------------------------------------------------------------
# bulk lattice
# ---------------------------------------------------------------------------


def test_bulk_mesh_tet_partition():
    bulk = build_bulk_mesh(Sphere(1.0), 4, half_width=2.0)
    assert bulk.n_tets == 6 * 4**3
    assert bulk.n_vertices == 5**3
    tets = bulk.tet_vertices(np.arange(bulk.n_tets))
    _, vols = oracles.tetrahedron_geometry(bulk.vertex_points(tets))
    assert (vols > 0).all()
    assert vols.sum() == pytest.approx(4.0**3, rel=1e-12)
    # each cube's six tets fill exactly one cell
    per_cube = vols.reshape(-1, 6).sum(axis=1)
    assert np.allclose(per_cube, bulk.h**3, rtol=1e-12)


def test_point_location_consistent():
    bulk = build_bulk_mesh(Sphere(1.0), 5, half_width=1.7)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.7, 1.7, size=(400, 3))
    tids = bulk.point_to_tet(pts)
    coords = bulk.vertex_points(bulk.tet_vertices(tids))
    lam = oracles.tetrahedron_barycentrics(coords, pts)
    assert lam.min() > -1e-10
    assert np.abs(lam.sum(axis=1) - 1.0).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(half_width=st.floats(0.5, 3.0), n=st.integers(1, 12), data=st.data())
def test_kuhn_table_matches_dense_geometry(half_width, n, data):
    """Table gradients, volume and lattice-formula points agree with the
    per-tet determinant and inverse of the gathered corners, which pins the
    id -> (cell, Kuhn index) -> corner order the table relies on."""
    bulk = BulkMesh(half_width, n)
    ids = np.array(data.draw(st.lists(st.integers(0, bulk.n_tets - 1),
                                      min_size=1, max_size=60)))
    coords = bulk.vertex_points(bulk.tet_vertices(ids))
    grads, vols = oracles.tetrahedron_geometry(coords)
    assert np.abs(bulk.tet_grads(ids) - grads).max() <= 1e-12 / bulk.h
    assert np.abs(vols - bulk.tet_volume).max() <= 1e-12 * bulk.tet_volume
    for rule in (TET_DEGREE4, TET_DEGREE2):
        pts = bulk.tet_points(ids, rule.points)
        assert np.abs(pts - rule.physical_points(coords)).max() <= 1e-12 * half_width
        lam = oracles.barycentric_values(grads, coords, pts)
        assert np.abs(lam - rule.points).max() <= 1e-12


@pytest.mark.parametrize("surface", [Torus(1.0, 0.4), Sphere(1.0)],
                         ids=["torus", "sphere"])
def test_bulk_solves_do_no_per_tet_linear_algebra(surface, monkeypatch):
    """Bulk element geometry comes from the Kuhn table, never from a
    determinant or an inverse per tetrahedron."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-element det/inv in a bulk-mesh solve")

    bulk = build_bulk_mesh(surface, 16)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    narrowband_solve(NarrowBandProblem(surface, bulk))
    trace_solve(TraceProblem(surface, bulk))


def test_bulk_mesh_keeps_no_lattice_arrays():
    """The lattice is implicit: a 96^3 mesh (5.3 million tets) allocates
    almost nothing."""
    import tracemalloc

    tracemalloc.start()
    try:
        bulk = build_bulk_mesh(Sphere(1.0), 96)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bulk.n_tets == 6 * 96**3
    assert peak < 2**20


def test_cut_extraction_evaluates_d_near_the_surface(monkeypatch):
    """Culling by the Lipschitz bound leaves O(n^2) distance evaluations,
    block centres included, where the lattice has (n + 1)^3 vertices."""
    count = [0]
    raw = Sphere._distance_raw

    def counted(self, pts):
        count[0] += len(pts)
        return raw(self, pts)

    monkeypatch.setattr(Sphere, "_distance_raw", counted)
    bulk = build_bulk_mesh(Sphere(1.0), 64)
    extract_cut_surface(bulk, Sphere(1.0))
    assert 0 < count[0] <= 0.15 * bulk.n_vertices


def test_box_too_small_raised():
    with pytest.raises(BoxTooSmall):
        build_bulk_mesh(Sphere(1.0), 8, half_width=1.2)  # needs 1 + 0.5
    bulk = build_bulk_mesh(Sphere(1.0), 8)  # default margin works
    assert bulk.half_width == pytest.approx(1.25 * 1.5)


# ---------------------------------------------------------------------------
# cut surface
# ---------------------------------------------------------------------------


def test_cut_surface_approximates_sphere():
    s = Sphere(1.0)
    areas = []
    for n in (8, 16, 32):
        bulk = build_bulk_mesh(s, n)
        cut = extract_cut_surface(bulk, s)
        areas.append(cut.total_area())
        # every cut vertex sits on a crossing edge: |d| <= tet diameter
        assert np.abs(s.distance(cut.vertices)).max() < bulk.tet_diameter
        # faces oriented along the outward normal
        _, nu = s._grad_raw(cut.vertices[cut.faces].mean(axis=1))
        assert (np.einsum("fd,fd->f", cut.normals, nu) > 0).all()
    errs = np.abs(np.array(areas) - 4 * np.pi)
    assert errs[2] < errs[0]
    assert errs[2] < 0.05


def test_cut_vertices_lie_on_lattice_edges():
    s = Sphere(1.0)
    bulk = build_bulk_mesh(s, 12)
    cut = extract_cut_surface(bulk, s)
    # vertices interpolate the vertex distance linearly to zero: d_h = 0,
    # reconstructed at cut vertices through their containing tets
    tids = bulk.point_to_tet(cut.vertices)
    coords = bulk.vertex_points(bulk.tet_vertices(tids))
    lam = oracles.tetrahedron_barycentrics(coords, cut.vertices)
    d_vertex = s._distance_raw(coords.reshape(-1, 3)).reshape(-1, 4)
    d_h = np.einsum("nk,nk->n", lam, d_vertex)
    assert np.abs(d_h).max() < 1e-9


def test_cut_faces_are_planar_per_parent_tet():
    """A linear level set cuts each tet in a planar polygon."""
    s = Sphere(1.0)
    bulk = build_bulk_mesh(s, 10)
    cut = extract_cut_surface(bulk, s)
    parents, counts = np.unique(cut.parent_tet, return_counts=True)
    assert counts.max() <= 2  # triangle or split quad
    for tid in parents[counts == 2][:20]:
        pair = np.flatnonzero(cut.parent_tet == tid)
        n0, n1 = cut.normals[pair]
        assert np.linalg.norm(np.cross(n0, n1)) < 1e-9


def test_cut_active_dofs_are_cut_tet_vertices():
    s = Sphere(1.0)
    bulk = build_bulk_mesh(s, 8)
    cut = extract_cut_surface(bulk, s)
    expected = np.unique(bulk.tet_vertices(np.unique(cut.parent_tet)))
    assert np.array_equal(cut.active_dofs, expected)
    assert cut.n_active_dofs == len(expected)


# ---------------------------------------------------------------------------
# sparse extraction against the dense lattice
# ---------------------------------------------------------------------------

SURFACES = st.one_of(
    st.builds(Sphere, st.floats(0.5, 2.0)),
    st.builds(lambda R, ratio: Torus(R, ratio * R),
              st.floats(0.8, 1.5), st.floats(0.3, 0.6)),
    st.builds(lambda a, rb, rc: Ellipsoid(a, rb * a, rc * a),
              st.floats(0.6, 1.5), st.floats(0.6, 1.0), st.floats(0.6, 1.0)),
)


@st.composite
def lattice_cases(draw):
    """(surface, n, half width, delta factor): n in [4, 40] cells in a box
    1 to 1.6 times the smallest that holds the surface's tube."""
    surface = draw(SURFACES)
    needed = float(np.max(surface.axis_extents())) + surface.tube_halfwidth()
    return (surface, draw(st.integers(4, 40)), needed * draw(st.floats(1.0, 1.6)),
            draw(st.floats(1.0, 2.0)))


def _snap_distance(bulk, surface):
    """The |d| below which the cut snaps a lattice vertex: SNAP K h^2."""
    return SNAP * surface.max_curvature() * bulk.h**2


@settings(max_examples=30, deadline=None)
@given(case=lattice_cases())
@example(case=(Torus(1.0, 0.4), 20, None, 1.5))
@example(case=(Sphere(1.0), 8, 2.0, 1.5))
@example(case=(Sphere(1.0), 16, 2.0, 1.5))
def test_sparse_extraction_matches_dense_lattice(case):
    """Culled cut and band extraction give every array of the dense march
    over all (n+1)^3 vertices and 6 n^3 tets, bit for bit, also with
    lattice vertices on the surface (the explicit cases)."""
    from beltrami import meshes

    surface, n, half_width, factor = case
    bulk = build_bulk_mesh(surface, n, half_width=half_width)
    vertices, tets = oracles.dense_kuhn_lattice(bulk.half_width, n)
    assert np.array_equal(bulk.tet_vertices(np.arange(bulk.n_tets)), tets)
    assert np.array_equal(bulk.vertex_points(np.arange(bulk.n_vertices)), vertices)

    ref = oracles.dense_cut_surface(
        vertices, tets, _snap_distance(bulk, surface), surface._distance_raw,
        lambda v, f: oracles.orient_outward(v, f, lambda x: surface._grad_raw(x)[1]),
        (meshes._CUT_FACES, meshes._TET_EDGES),
    )
    if ref is None:
        with pytest.raises(BeltramiError):
            extract_cut_surface(bulk, surface)
    else:
        cut = extract_cut_surface(bulk, surface)
        assert np.array_equal(cut.active_dofs[cut.ends], ref.pop("edge_ends"))
        for name, want in ref.items():
            assert np.array_equal(getattr(cut, name), want), name

    delta = factor * bulk.h
    ref = oracles.dense_band(vertices, tets, surface._distance_raw, delta)
    if ref is None:
        with pytest.raises(EmptyBand):
            extract_band(bulk, surface, delta)
    else:
        band = extract_band(bulk, surface, delta)
        band_tets = ref.pop("tets")
        assert np.array_equal(bulk.tet_vertices(band.tet_ids), band_tets)
        assert np.array_equal(band.dofs, oracles.searched_dofs(band.active_dofs, band_tets))
        for name, want in ref.items():
            assert np.array_equal(getattr(band, name), want), name


@settings(max_examples=25, deadline=None)
@given(surface=SURFACES, n=st.integers(6, 40), factor=st.floats(1.0, 2.0))
@example(surface=Torus(1.0, 0.4), n=16, factor=1.0)
def test_records_number_dofs_as_sorting_does(surface, n, factor):
    """The cut's and the band's DOFs, numbered by marking rows of the
    culled set, equal the sort-and-search rule (``oracles.sorted_numbering``)
    over the culled vertices.  The cut's and the band-marched cut's edge
    ends, by position, place every cut vertex, and E carries a linear
    function from the DOFs to the cut vertices."""
    bulk = build_bulk_mesh(surface, n)
    delta = factor * bulk.h
    try:
        cut = extract_cut_surface(bulk, surface)
        band = extract_band(bulk, surface, delta)
    except BeltramiError:
        assume(False)

    ids, corners, vids, d = bulk._near_surface(surface, delta)
    dv = d[corners]
    assert np.array_equal(band.tet_ids, ids[(dv.min(axis=1) < delta) & (dv.max(axis=1) > -delta)])
    want = oracles.sorted_numbering(bulk.tet_vertices(band.tet_ids), vids, d)
    for name, value in zip(("active_dofs", "dofs", "d_vertex"), want):
        assert np.array_equal(getattr(band, name), value), name

    eps = _snap_distance(bulk, surface)
    ids, corners, vids, d = bulk._near_surface(surface, 0.0)
    snap = np.abs(d) < eps
    d[snap] = np.where(d[snap] < 0.0, -eps, eps)
    mixed = ids[((d < 0.0)[corners].any(axis=1)) & ((d > 0.0)[corners].any(axis=1))]
    assert np.isin(cut.parent_tet, mixed).all()
    active, _, d_active = oracles.sorted_numbering(bulk.tet_vertices(cut.parent_tet), vids, d)
    assert np.array_equal(cut.active_dofs, active)
    assert np.array_equal(cut.d_vertex, d_active)

    def linear(x):
        return x @ np.array([0.3, -1.1, 0.7]) + 0.2

    for marched in (cut, extract_cut_surface(bulk, surface, band)):
        pa, pb = np.moveaxis(bulk.vertex_points(marched.active_dofs[marched.ends]), 1, 0)
        assert np.array_equal(marched.vertices, pa + marched.tvals[:, None] * (pb - pa))
        E = cut_face_set(marched)["E"]
        at_cut = E @ linear(bulk.vertex_points(marched.active_dofs))
        assert np.abs(at_cut - linear(marched.vertices)).max() <= 1e-12 * bulk.half_width


@settings(max_examples=25, deadline=None)
@given(surface=SURFACES, n=st.integers(6, 40), factor=st.floats(1.0, 2.0))
@example(surface=Sphere(1.0), n=30, factor=1.5)
@example(surface=Torus(1.0, 0.4), n=16, factor=1.0)
def test_band_marched_cut_is_the_cut(surface, n, factor):
    """The cut marched from a band's rows is the freshly culled cut byte for
    byte, numbered as the band by search, and leaves the band's d as it
    was; the unit sphere at n = 30 has lattice vertices (+-1, 0, 0) on it."""
    bulk = build_bulk_mesh(surface, n)
    try:
        cut = extract_cut_surface(bulk, surface)
        band = extract_band(bulk, surface, factor * bulk.h)
    except BeltramiError:
        assume(False)
    d = band.d_vertex.copy()
    marched = extract_cut_surface(bulk, surface, band)
    for name in ("vertices", "faces", "grads", "areas", "normals", "parent_tet", "tvals"):
        got, want = getattr(marched, name), getattr(cut, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert np.array_equal(marched.active_dofs, band.active_dofs)
    assert np.array_equal(marched.active_dofs[marched.ends], cut.active_dofs[cut.ends])
    assert band.d_vertex.tobytes() == d.tobytes()


@settings(max_examples=25, deadline=None)
@given(surface=SURFACES, n=st.integers(6, 40), factor=st.floats(1.0, 2.0))
def test_axis_edges_match_brute_force(surface, n, factor):
    """Every Kuhn tetrahedron has three lattice axis edges, the steps of
    its chain, and the closed-form numbering of ``axis_edges`` equals the
    sorted one of the brute-force search over all six corner pairs, on the
    band's rows and on the cut's parent tetrahedra, numbered as the cut and
    as the band; the chain is the corners in ascending lattice id."""
    bulk = build_bulk_mesh(surface, n)
    try:
        cut = extract_cut_surface(bulk, surface)
        band = extract_band(bulk, surface, factor * bulk.h)
    except BeltramiError:
        assume(False)
    tets = bulk.tet_vertices(cut.parent_tet)
    band_cut = oracles.searched_dofs(band.active_dofs, tets)
    assert band_cut.min() >= 0
    for tet_ids, dofs, active in (
            (cut.parent_tet, oracles.searched_dofs(cut.active_dofs, tets), cut.active_dofs),
            (band.tet_ids, band.dofs, band.active_dofs), (cut.parent_tet, band_cut, band.active_dofs)):
        chain, mask, pairs, ids = oracles.lattice_axis_edges(dofs, active, n + 1)
        assert (mask == [True, False, False, True, False, True]).all()
        got_chain, (got_pairs, got_ids) = axis_edges(tet_ids, dofs)
        for got, want in ((got_chain, chain), (got_pairs, pairs), (got_ids, ids)):
            assert np.array_equal(got, want) and got.dtype == want.dtype


@settings(max_examples=40, deadline=None)
@given(case=lattice_cases())
@example(case=(Sphere(1.0), 30, 2.5, 1.0))
@example(case=(Sphere(1.0 + 1e-6 / 6.0), 30, 2.5, 1.0))
@example(case=(Sphere(1.0 - 1e-6 / 6.0), 30, 2.5, 1.0))
@example(case=(Sphere(1.0 + 0.99 * SNAP / 36.0), 30, 2.5, 1.0))
@example(case=(Sphere(1.0 - 0.99 * SNAP / 36.0), 30, 2.5, 1.0))
@example(case=(Sphere(1.0 + 1.01 * SNAP / 36.0), 30, 2.5, 1.0))
@example(case=(Sphere(1.0 - 1.01 * SNAP / 36.0), 30, 2.5, 1.0))
def test_extraction_keeps_only_faces_triangle_geometry_accepts(case):
    """``triangle_geometry`` refuses a face when 2|T| < 2e-14 |e_max|^2;
    every face extraction keeps passes that rule, so no solve meets
    DegenerateSimplex.  Every crossing lies a share tau >= eps /
    (sqrt 3 h + eps) of its edge from both ends, eps = SNAP K h^2, so every
    face has 2|T| >= tau^2 h^2 / sqrt 3 (``extract_cut_surface``) and
    2|T| >= 2e-14 h^2: no sliver is made.  At h = 1/6 the lattice vertex
    (1, 0, 0) lies on the unit sphere, 1e-6 h off the next two spheres, and
    0.99 or 1.01 times SNAP h^2 off the last four, just inside and just
    outside eps (K = 1/R differs from 1 by 3e-4)."""
    surface, n, half_width, _ = case
    bulk = build_bulk_mesh(surface, n, half_width=half_width)
    try:
        cut = extract_cut_surface(bulk, surface)
    except BeltramiError:
        assume(False)
    triangle_geometry(*cut.vertices[cut.faces.T])
    two_area = 2.0 * cut.areas
    eps = _snap_distance(bulk, surface)
    tau = eps / (np.sqrt(3.0) * bulk.h + eps)
    assert (two_area >= 2e-14 * bulk.h**2).all()
    assert (two_area >= tau**2 * bulk.h**2 / np.sqrt(3.0)).all()


@pytest.mark.parametrize("radius, n, half_width, snapped", [
    (1.0, 7, 2.109375, 24), (1.0 + 0.99 * SNAP / 36.0, 30, 2.5, 30)])
def test_snap_is_independent_of_scale(radius, n, half_width, snapped):
    """The snap distance SNAP K h^2 scales with the surface: Sphere(50 r) in
    a box 50 times as wide snaps as many lattice vertices as Sphere(r), and
    its cut has the same faces with vertices 50 times as far out."""
    cuts = []
    for scale in (1.0, 50.0):
        s = Sphere(scale * radius)
        bulk = build_bulk_mesh(s, n, half_width=scale * half_width)
        cut = extract_cut_surface(bulk, s)
        assert np.count_nonzero(np.abs(cut.d_vertex) == _snap_distance(bulk, s)) == snapped
        cuts.append(cut)
    small, large = cuts
    assert np.array_equal(small.faces, large.faces)
    assert np.abs(large.vertices - 50.0 * small.vertices).max() <= 1e-12 * 50.0 * radius


def test_extraction_never_calls_unique(monkeypatch):
    """Neither record sorts to number its vertices or its crossing edges:
    ``extract_band`` and both ``extract_cut_surface`` routes, fresh and
    marched from a band, call ``np.unique`` zero times."""
    calls, unique = [], np.unique

    def counted(*args, **kwargs):
        calls.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    t = Torus(1.0, 0.4)
    bulk = build_bulk_mesh(t, 16)
    band = extract_band(bulk, t, 1.5 * bulk.h)
    assert len(calls) == 0
    extract_cut_surface(bulk, t)
    assert len(calls) == 0
    extract_cut_surface(bulk, t, band)
    assert len(calls) == 0


@settings(max_examples=30, deadline=None)
@given(case=lattice_cases())
@example(case=(Sphere(1.0), 30, 2.5, 1.5))
@example(case=(Torus(1.0, 0.4), 48, None, 1.5))
@example(case=(Ellipsoid(1.3, 1.0, 0.8), 7, None, 2.0))
def test_cull_numbers_vertices_as_unique_does(case):
    """The culled vertices, numbered by one merge of the kept cells' cube
    corners, are ``np.unique`` of the culled tets' corners with its inverse,
    at the cut's reach (0: the cells that meet the surface) and at the
    band's, dtypes included."""
    surface, n, half_width, factor = case
    bulk = build_bulk_mesh(surface, n, half_width=half_width)
    for reach in (0.0, factor * bulk.h):
        ids, corners, vids, d = bulk._near_surface(surface, reach)
        assert (np.diff(ids) > 0).all() and (ids[::6] % 6 == 0).all()
        want_vids, want_corners = np.unique(bulk.tet_vertices(ids), return_inverse=True)
        for got, want in ((vids, want_vids), (corners, want_corners.reshape(-1, 4))):
            assert np.array_equal(got, want) and got.dtype == want.dtype
        assert d.tobytes() == surface._distance_raw(bulk.vertex_points(vids)).tobytes()


@settings(max_examples=30, deadline=None)
@given(case=lattice_cases())
@example(case=(Sphere(1.0), 30, 2.5, 1.5))
@example(case=(Sphere(1.0), 31, 2.5, 1.0))
@example(case=(Torus(1.0, 0.4), 48, None, 1.5))
def test_crossing_edges_number_as_unique_does(case):
    """The cut of the culled set and the cut marched from a band's rows
    number their crossing edges as ``np.unique(lo * V + hi)`` does
    (``oracles.dense_cut_surface`` run on those vertices), every array bit
    for bit, also where lattice vertices lie on the unit sphere at n = 30
    and are snapped off it.  The areas, normals and gradients formed from the
    orienting cross product are those ``triangle_geometry`` forms, zero
    signs included: at n = 31 faces in the lattice planes through the
    centre have normals with zero components, some of them -0.0."""
    from beltrami import meshes

    surface, n, half_width, factor = case
    bulk = build_bulk_mesh(surface, n, half_width=half_width)
    ids, corners, vids, _ = bulk._near_surface(surface, 0.0)
    routes = [(None, ids, corners, vids)]
    try:
        band = extract_band(bulk, surface, factor * bulk.h)
        routes.append((band, band.tet_ids, band.dofs, band.active_dofs))
    except EmptyBand:
        pass
    for band, tet_ids, tets, active in routes:
        ref = oracles.dense_cut_surface(
            bulk.vertex_points(active), tets, _snap_distance(bulk, surface),
            surface._distance_raw,
            lambda v, f: oracles.orient_outward(v, f, lambda x: surface._grad_raw(x)[1]),
            (meshes._CUT_FACES, meshes._TET_EDGES))
        if ref is None:
            with pytest.raises(BeltramiError, match="does not cut"):
                extract_cut_surface(bulk, surface, band)
            continue
        cut = extract_cut_surface(bulk, surface, band)
        assert np.array_equal(cut.active_dofs[cut.ends], active[ref["edge_ends"]])
        assert np.array_equal(cut.parent_tet, tet_ids[ref["parent_tet"]])
        if band is None:
            assert np.array_equal(cut.active_dofs, active[ref["active_dofs"]])
            assert np.array_equal(cut.d_vertex, ref["d_vertex"])
        for name in ("vertices", "faces", "tvals"):
            got, want = getattr(cut, name), ref[name]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        for got, want in zip((cut.grads, cut.areas, cut.normals),
                             triangle_geometry(*cut.vertices[cut.faces.T])):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 8])
def test_empty_cull_raises_for_both_records(n):
    """A box deep inside the sphere culls no cell: the cull returns empty
    arrays of its shapes, the band raises EmptyBand, the cut "does not
    cut"."""
    from beltrami.meshes import BulkMesh

    bulk, s = BulkMesh(0.2, n), Sphere(1.0)
    ids, corners, vids, d = bulk._near_surface(s, bulk.h)
    assert ids.shape == vids.shape == d.shape == (0,) and corners.shape == (0, 4)
    with pytest.raises(EmptyBand):
        extract_band(bulk, s, bulk.h)
    with pytest.raises(BeltramiError, match="does not cut"):
        extract_cut_surface(bulk, s)


def test_fresh_cut_extraction_peak_memory():
    """Under tracemalloc a fresh ``extract_cut_surface`` of ``Sphere(1)`` at
    n = 64 peaks at 15.22 MiB, the bulk mesh built before; the bound is
    that + 5 %."""
    import tracemalloc

    s = Sphere(1.0)
    bulk = build_bulk_mesh(s, 64)
    tracemalloc.start()
    try:
        extract_cut_surface(bulk, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 15.22 * 2**20


# ---------------------------------------------------------------------------
# drawn surfaces: cut topology and bulk solves
# ---------------------------------------------------------------------------


def _cells_for(surface, h_per_tube):
    """Fewest cells per axis of the default box with h <= h_per_tube * tube."""
    half_width = build_bulk_mesh(surface, 1).half_width
    return int(np.ceil(2.0 * half_width / (h_per_tube * surface.tube_halfwidth())))


@st.composite
def resolved_cases(draw):
    """(surface, n, None) with tet diameter h sqrt(3) <= tube half-width."""
    surface = draw(SURFACES)
    return surface, _cells_for(surface, 1.0 / np.sqrt(3.0)) + draw(st.integers(0, 3)), None


@st.composite
def coarse_cases(draw):
    """(surface, n, None) with n <= 20 and h <= 2 tube half-widths."""
    surface = draw(SURFACES)
    return surface, draw(st.integers(_cells_for(surface, 2.0), 20)), None


@st.composite
def lattice_sphere_cases(draw, max_m=7, max_extra=2):
    """(unit sphere, n, half width) with a lattice vertex on the sphere.

    The box [-n h/2, n h/2]^3 has lattice coordinates h (i + o), o = 0 for
    even n and 1/2 for odd n; the radius is the length of the vertex
    h (m + o, o, o), so R = m h on even lattices.
    """
    odd = draw(st.booleans())
    o = 0.5 * odd
    c = np.sqrt((draw(st.integers(4, max_m)) + o) ** 2 + 2 * o**2)
    n = int(np.ceil(3.0 * c))  # half width n h / 2 >= extent + tube = 1.5
    n += n % 2 != odd
    n += 2 * draw(st.integers(0, max_extra))
    return Sphere(1.0), n, 0.5 * n / c


@settings(max_examples=30, deadline=None)
@given(case=st.one_of(resolved_cases(), lattice_sphere_cases()))
@example(case=(Torus(1.0, 0.4), 20, None))
@example(case=(Sphere(1.0), 8, 2.0))
@example(case=(Sphere(1.0), 16, 2.0))
def test_cut_surface_is_closed_with_surface_topology(case):
    """Closed manifold with the Euler characteristic of the surface, also
    when lattice vertices lie on it (the explicit cases)."""
    surface, n, half_width = case
    bulk = build_bulk_mesh(surface, n, half_width=half_width)
    cut = extract_cut_surface(bulk, surface)
    edges, face_edges = edge_table(cut.faces)
    assert (np.bincount(face_edges.ravel(), minlength=len(edges)) == 2).all()
    chi = 0 if surface.kind == "torus" else 2
    assert len(cut.vertices) - len(edges) + cut.n_faces == chi
    assert np.isfinite(cut.vertices).all()


def _assert_finite_mean_zero(field, *reports):
    for report in reports:
        assert np.isfinite([report.err_L2, report.err_H1]).all()
    m, c = field.mass, field.coefficients
    assert abs(m @ c) <= 1e-9 * np.linalg.norm(m) * np.linalg.norm(c)


@settings(max_examples=15, deadline=None)
@given(case=st.one_of(coarse_cases(), lattice_sphere_cases(max_m=5, max_extra=1)))
def test_bulk_solves_are_finite_and_mean_zero(case):
    surface, n, half_width = case
    bulk = build_bulk_mesh(surface, n, half_width=half_width)
    _assert_finite_mean_zero(*trace_solve(TraceProblem(surface, bulk)))
    try:
        field, report = narrowband_solve(NarrowBandProblem(surface, bulk))
    except BeltramiError:
        return
    _assert_finite_mean_zero(field, report)
    assert np.isfinite([report.info["band_err_L2"], report.info["band_err_H1"]]).all()


def _kernel_dimension(A):
    """Eigenvalues below 1e-10 lambda_max of A without the rows the
    solver freezes (diagonal at most 1e-14 of the largest)."""
    diag = A.diagonal()
    keep = diag > 1e-14 * diag.max()
    assume(keep.sum() <= 1200)
    lam = np.linalg.eigvalsh(A.toarray()[np.ix_(keep, keep)])
    return int((lam < 1e-10 * lam[-1]).sum())


@st.composite
def boxed_cases(draw):
    """(surface, n, half width): n in [4, 12] cells in a box up to 1.6 times
    the smallest that holds the surface's tube."""
    surface = draw(SURFACES)
    needed = float(np.max(surface.axis_extents())) + surface.tube_halfwidth()
    return surface, draw(st.integers(4, 12)), needed * draw(st.floats(1.0, 1.6))


@settings(max_examples=25, deadline=None)
@given(case=boxed_cases())
@example(case=(Sphere(1.0), 7, 2.109375))
def test_trace_stiffness_kernel_is_constants_and_distance(case):
    """README: the trace kernel is the constants plus the nodal d_h, also
    where a belt of snapped vertices rings the cut (the explicit case snaps
    24 of them)."""
    surface, n, half_width = case
    # sizes the solver rejects with a typed error (no cut, NormalFlip) are
    # not discrete problems and carry no kernel claim
    try:
        problem = TraceProblem(surface, build_bulk_mesh(surface, n, half_width=half_width))
        A = trace_assemble(problem)[0]
    except BeltramiError:
        assume(False)
    d = problem.cut.d_vertex
    assert np.abs(A @ d).max() <= 1e-12 * abs(A).max() * np.abs(d).max()
    assert _kernel_dimension(A) == 2


@settings(max_examples=10, deadline=None)
@given(case=boxed_cases())
def test_band_stiffness_kernel_is_constants(case):
    surface, n, half_width = case
    bulk = build_bulk_mesh(surface, n, half_width=half_width)
    try:
        problem = NarrowBandProblem(surface, bulk)
        quad = _band_quadrature(problem)
        narrowband_forcing(problem, quad)
    except BeltramiError:
        assume(False)
    assert _kernel_dimension(_band_stiffness(problem, quad["measures"])) == 1


@settings(max_examples=25, deadline=None)
@given(case=lattice_cases())
@example(case=(Torus(1.0, 0.4), 24, None, 1.5))
def test_band_stiffness_is_the_axis_edge_stencil(case):
    """The band stiffness, summed on the lattice's axis edges in closed
    form, holds the values of the gradient route over all six edges of
    every tet (``gradient_couplings`` on ``edge_table``) once that route's
    exact zeros are dropped, and agrees with ``oracles.coo_stiffness`` of
    the Kuhn table's gradients within 26 ulp of each row's largest entry:
    an entry sums at most 24 terms of one sign (a lattice vertex lies in 24
    Kuhn tets), so two summation orders differ by at most 23 ulp of the
    sum, and the oracle's product order (|T| g_a) . g_b adds at most 2 more.
    Besides the diagonal it stores only couplings of lattice neighbours
    along one axis, at most 7 entries a row, and its row sums vanish to
    1e-12 of max |A|."""
    surface, n, half_width, factor = case
    bulk = build_bulk_mesh(surface, n, half_width=half_width)
    try:
        problem = NarrowBandProblem(surface, bulk, delta=factor * bulk.h)
    except BeltramiError:
        assume(False)
    band, measures = problem.band, _band_quadrature(problem)["measures"]
    A = _band_stiffness(problem, measures)
    grads, dofs, n_dof = bulk.tet_grads(band.tet_ids), band.dofs, band.n_active_dofs
    es = {"grads": grads, "measures": measures, "dofs": dofs}
    full = assemble_stiffness(*gradient_couplings(es, n_dof), edge_table(dofs))
    lean = A.copy()
    for M in (full, lean):
        M.eliminate_zeros()
    for key in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(lean, key), getattr(full, key)), key
    ref = oracles.coo_stiffness(grads, measures, dofs, n_dof)
    diff = (A - ref).tocsr()
    row_max = abs(ref).max(axis=1).toarray().ravel()
    rows = np.repeat(np.arange(n_dof), np.diff(diff.indptr))
    assert (np.abs(diff.data) <= 26 * np.finfo(float).eps * row_max[rows]).all()
    coo = A.tocoo()
    s = n + 1
    steps = np.abs(np.subtract(np.unravel_index(band.active_dofs[coo.row], (s, s, s)),
                               np.unravel_index(band.active_dofs[coo.col], (s, s, s))))
    assert np.array_equal(steps.sum(axis=0), (coo.row != coo.col).astype(int))
    assert np.diff(A.indptr).max() <= 7
    assert np.abs(A @ np.ones(n_dof)).max() <= 1e-12 * np.abs(A.data).max()


@settings(max_examples=10, deadline=None)
@given(surface=SURFACES, level=st.integers(0, 2))
def test_parametric_stiffness_kernel_is_constants(surface, level):
    try:
        mesh = surface_mesh_for_level(surface, level)
    except BeltramiError:
        assume(False)
    es = {"grads": mesh.grads, "measures": mesh.areas, "dofs": mesh.triangles}
    A = assemble_stiffness(*gradient_couplings(es, mesh.n_vertices), (mesh.edges, mesh.tri_edges))
    assert _kernel_dimension(A) == 1


# ---------------------------------------------------------------------------
# band
# ---------------------------------------------------------------------------


def test_band_window_and_membership():
    s = Sphere(1.0)
    bulk = build_bulk_mesh(s, 16)
    delta = 1.5 * bulk.h
    band = extract_band(bulk, s, delta)
    d = s._distance_raw(bulk.vertex_points(np.arange(bulk.n_vertices)))
    dv = d[bulk.tet_vertices(np.arange(bulk.n_tets))]
    member = (dv.min(axis=1) < delta) & (dv.max(axis=1) > -delta)
    assert np.array_equal(np.flatnonzero(member), band.tet_ids)
    # window guard
    with pytest.raises(ValueError):
        extract_band(bulk, s, 0.5 * bulk.h)
    with pytest.raises(ValueError):
        extract_band(bulk, s, 2.5 * bulk.h)


def test_empty_band_raised():
    # a small box deep inside the sphere: every vertex has d <= -0.65,
    # below -delta, so no tetrahedron meets the band
    from beltrami.meshes import BulkMesh

    bulk = BulkMesh(0.2, 1)
    with pytest.raises(EmptyBand):
        extract_band(bulk, Sphere(1.0), bulk.h)


@pytest.mark.parametrize("n", [6, 12])
def test_band_contains_cut_tets(n):
    s = Sphere(1.0)
    bulk = build_bulk_mesh(s, n)
    cut = extract_cut_surface(bulk, s)
    band = extract_band(bulk, s, 1.5 * bulk.h)
    assert np.isin(cut.parent_tet, band.tet_ids).all()


# ---------------------------------------------------------------------------
# file export
# ---------------------------------------------------------------------------


def test_off_round_trip(tmp_path):
    s = Sphere(1.0)
    mesh = build_sphere_mesh(s, 1)
    path = tmp_path / "mesh.off"
    write_off(path, mesh.vertices, mesh.triangles)
    v, f = oracles.parse_off(path.read_text())
    assert np.abs(v - mesh.vertices).max() < 1e-11
    assert np.array_equal(f, mesh.triangles)


def test_vtk_round_trip(tmp_path):
    bulk = build_bulk_mesh(Sphere(1.0), 3, half_width=1.6)
    path = tmp_path / "bulk.vtk"
    vertices = bulk.vertex_points(np.arange(bulk.n_vertices))
    tets = bulk.tet_vertices(np.arange(bulk.n_tets))
    write_vtk_tets(path, vertices, tets)
    v, t = oracles.parse_vtk_tets(path.read_text())
    assert np.abs(v - vertices).max() < 1e-11
    assert np.array_equal(t, tets)


def test_export_is_deterministic(tmp_path):
    mesh = build_sphere_mesh(Sphere(1.0), 2)
    p1, p2 = tmp_path / "a.off", tmp_path / "b.off"
    write_off(p1, mesh.vertices, mesh.triangles)
    write_off(p2, mesh.vertices, mesh.triangles)
    assert p1.read_bytes() == p2.read_bytes()
