"""Surface meshing, bisection refinement, bulk lattices, cuts, and bands."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami import (
    BoxTooSmall,
    EmptyBand,
    Sphere,
    SurfaceMesh,
    Torus,
    build_bulk_mesh,
    build_sphere_mesh,
    build_torus_mesh,
    extract_band,
    extract_cut_surface,
    refine_bisection,
    refine_uniform,
    write_off,
    write_vtk_tets,
)
from beltrami.errors import BeltramiError

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
        assert mesh.euler_characteristic() == 2
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
    assert mesh.euler_characteristic() == 0
    assert mesh.n_vertices == 24 * 12
    assert np.abs(t.distance(mesh.vertices)).max() < 1e-12
    centers = t.closest_point(mesh.vertices[mesh.triangles].mean(axis=1))
    _, nu = t._grad_raw(centers)
    assert (np.einsum("td,td->t", mesh.normals, nu) > 0.5).all()


def test_shape_regularity_enforced():
    # a long sliver violates diam / sqrt(area) <= sigma_max
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.02, 0.0], [0.5, -0.02, 0.0],
    ])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 2, 3], [1, 3, 2]])
    with pytest.raises(BeltramiError):
        SurfaceMesh(v, tris)


def test_refine_uniform_quadruples():
    s = Sphere(1.0)
    m0 = build_sphere_mesh(s, 0)
    m1 = refine_uniform(m0, s)
    assert m1.n_triangles == 4 * m0.n_triangles
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
    assert fine.euler_characteristic() == 2
    assert np.abs(np.linalg.norm(fine.vertices, axis=1) - 1.0).max() < 1e-12
    # conformity closure refines at least the marked count extra triangles
    assert fine.n_triangles >= mesh.n_triangles + len(marked)
    assert fine.areas.max() <= old_areas.max() + 1e-12


def test_bisection_keeps_shape_regularity():
    """Newest-vertex bisection cycles through finitely many shapes."""
    s = Sphere(1.0)
    mesh = build_sphere_mesh(s, 0)
    rng = np.random.default_rng(4)
    for _ in range(6):
        marked = rng.choice(mesh.n_triangles, size=max(mesh.n_triangles // 5, 1),
                            replace=False)
        mesh = refine_bisection(mesh, marked, s)
    assert (mesh.diameters / mesh.h).max() <= mesh.sigma_max
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
    assert mesh.euler_characteristic() == chi
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


# ---------------------------------------------------------------------------
# bulk lattice
# ---------------------------------------------------------------------------


def test_bulk_mesh_tet_partition():
    bulk = build_bulk_mesh(Sphere(1.0), 4, half_width=2.0)
    assert bulk.n_tets == 6 * 4**3
    assert bulk.n_vertices == 5**3
    from beltrami.fem import tetrahedron_geometry

    _, vols = tetrahedron_geometry(bulk.vertices[bulk.tets])
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
    from beltrami.fem import barycentric_values, tetrahedron_geometry

    coords = bulk.vertices[bulk.tets[tids]]
    grads, _ = tetrahedron_geometry(coords)
    lam = barycentric_values(grads, coords, pts[:, None, :])[:, 0, :]
    assert lam.min() > -1e-10
    assert np.abs(lam.sum(axis=1) - 1.0).max() < 1e-10


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
    # vertices interpolate the vertex distance linearly to zero: d_h = 0
    d_vertex = s._distance_raw(bulk.vertices)
    # reconstruct d_h at cut vertices through their containing tets
    tids = bulk.point_to_tet(cut.vertices)
    from beltrami.fem import barycentric_values, tetrahedron_geometry

    coords = bulk.vertices[bulk.tets[tids]]
    grads, _ = tetrahedron_geometry(coords)
    lam = barycentric_values(grads, coords, cut.vertices[:, None, :])[:, 0, :]
    d_h = np.einsum("nk,nk->n", lam, d_vertex[bulk.tets[tids]])
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
    expected = np.unique(bulk.tets[cut.cut_tets])
    assert np.array_equal(cut.active_dofs, expected)
    assert cut.n_active_dofs == len(expected)


# ---------------------------------------------------------------------------
# band
# ---------------------------------------------------------------------------


def test_band_window_and_membership():
    s = Sphere(1.0)
    bulk = build_bulk_mesh(s, 16)
    delta = 1.5 * bulk.h
    band = extract_band(bulk, s, delta)
    d = s._distance_raw(bulk.vertices)
    dv = d[bulk.tets]
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
    assert np.isin(cut.cut_tets, band.tet_ids).all()


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
    write_vtk_tets(path, bulk.vertices, bulk.tets)
    v, t = oracles.parse_vtk_tets(path.read_text())
    assert np.abs(v - bulk.vertices).max() < 1e-11
    assert np.array_equal(t, bulk.tets)


def test_export_is_deterministic(tmp_path):
    mesh = build_sphere_mesh(Sphere(1.0), 2)
    p1, p2 = tmp_path / "a.off", tmp_path / "b.off"
    write_off(p1, mesh.vertices, mesh.triangles)
    write_off(p2, mesh.vertices, mesh.triangles)
    assert p1.read_bytes() == p2.read_bytes()
