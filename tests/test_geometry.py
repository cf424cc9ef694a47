"""Distance-jet, projection, and manufactured-data checks for the surfaces."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beltrami import (
    CLOSEST_POINT,
    SCALED_RADIAL,
    Ellipsoid,
    OutsideTube,
    Sphere,
    Torus,
    ParametricProblem,
    RayMiss,
    UnsupportedSurface,
    build_bulk_mesh,
    build_sphere_mesh,
    build_torus_mesh,
    surface_from_config,
)
import beltrami.geometry
from beltrami.fem import TRI_DEGREE4
from beltrami.geometry import hessian_matrix, row_cross, row_dot, row_norm
from beltrami.narrowband import mismatch_map
from beltrami.parametric import parametric_workspace

import oracles

RNG = np.random.default_rng(20260814)

SURFACES = [
    Sphere(1.0),
    Sphere(0.7),
    Torus(1.0, 0.4),
    Ellipsoid(1.3, 1.0, 0.8),
]


def tube_sample(surface, n, fill=0.8):
    rng = np.random.default_rng(3)
    return surface.tube_points(n, rng, fill=fill)


# ---------------------------------------------------------------------------
# distance jet
# ---------------------------------------------------------------------------


def test_sphere_jet_closed_form():
    R = 0.9
    s = Sphere(R)
    pts = tube_sample(s, 200)
    d, g, H = s.distance_jet(pts)
    r = np.linalg.norm(pts, axis=1)
    assert np.allclose(d, r - R, atol=1e-14)
    assert np.allclose(g, pts / r[:, None], atol=1e-14)
    eye = np.eye(3)
    H_exact = (eye[None] - g[:, :, None] * g[:, None, :]) / r[:, None, None]
    assert np.abs(H - H_exact).max() < 1e-13


@pytest.mark.parametrize("surface", SURFACES, ids=repr)
def test_jet_matches_finite_differences(surface):
    """grad d and D2 d agree with central differences of the distance."""
    pts = tube_sample(surface, 12, fill=0.6)
    d, g, H = surface.distance_jet(pts)

    def dist(y):
        return float(surface._distance_raw(y[None])[0])

    for x, gi, Hi in zip(pts, g, H):
        g_fd = oracles.fd_gradient(dist, x, 1e-6)
        assert np.abs(g_fd - gi).max() < 5e-8
        H_fd = oracles.fd_hessian(dist, x, 1e-4)
        assert np.abs(H_fd - Hi).max() < 5e-5


@pytest.mark.parametrize("surface", SURFACES, ids=repr)
def test_projection_properties(surface):
    pts = tube_sample(surface, 300)
    d = surface.distance(pts)
    p = surface.closest_point(pts)
    scale = float(np.max(surface.axis_extents()))
    # P lands on the zero level set and is idempotent
    assert np.abs(surface._distance_raw(p)).max() < 1e-9 * scale
    assert np.linalg.norm(surface.closest_point(p) - p, axis=1).max() < 1e-9 * scale
    # displacement length equals |d|
    assert np.abs(np.linalg.norm(pts - p, axis=1) - np.abs(d)).max() < 1e-9 * scale


@pytest.mark.parametrize("surface", SURFACES, ids=repr)
def test_eikonal_along_normals(surface):
    """d(P(x) + t grad d) = t for |t| below the tube halfwidth."""
    pts = tube_sample(surface, 100)
    p = surface.closest_point(pts)
    _, g = surface._grad_raw(p)
    for t in (-0.6, 0.25, 0.8):
        t = t * surface.tube_halfwidth()
        assert np.abs(surface.distance(p + t * g) - t).max() < 1e-8


def test_outside_tube_raises():
    s = Torus(1.0, 0.3)
    far = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 0.0]])  # axis point is singular too
    with pytest.raises(OutsideTube):
        s.distance(far)
    with pytest.raises(OutsideTube):
        s.closest_point(np.zeros(3))
    # sphere center
    with pytest.raises(OutsideTube):
        Sphere(1.0).distance(np.zeros(3))


GUARDED = {"sphere": Sphere(1.0), "torus": Torus(1.0, 0.4),
           "ellipsoid": Ellipsoid(1.3, 1.0, 0.8)}
# where each surface's jet is not defined: the sphere's center, the torus
# axis and core circle, the ellipsoid's deep interior
SINGULAR = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.3), (0.0, 1.0, 0.0), (1e-13, 0.0, 0.0),
            (0.1, 0.0, 0.0)]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(GUARDED)), seed=st.integers(0, 2**32 - 1),
       fill=st.floats(0.5, 2.5), extra=st.lists(st.sampled_from(SINGULAR), max_size=3))
@example(kind="sphere", seed=0, fill=0.9, extra=[(0.0, 0.0, 0.0)])
@example(kind="torus", seed=0, fill=0.9, extra=[(0.0, 0.0, 0.3), (0.0, 1.0, 0.0)])
@example(kind="ellipsoid", seed=0, fill=0.9, extra=[(0.1, 0.0, 0.0)])
def test_guarded_routes_reject_the_oracles_points(kind, seed, fill, extra):
    """The guarded (d, grad d) and jet of each surface reject exactly the
    points of the reference rule (``oracles.outside_tube_mask``), counted in
    the ``OutsideTube`` message, and equal the raw jet on the others.  Tube
    points beyond the half-width reach the rule's region too."""
    s = GUARDED[kind]
    pts = np.vstack([s.tube_points(30, np.random.default_rng(seed), fill=fill),
                     np.reshape(extra, (-1, 3))])
    bad = oracles.outside_tube_mask(s, pts)
    ok = pts[~bad]
    for route in (s._guarded_grad, s._guarded_jet):
        if bad.any():
            with pytest.raises(OutsideTube, match=f"^{np.count_nonzero(bad)} point"):
                route(pts)
        assert all(np.array_equal(a, b) for a, b in zip(route(ok), s._jet_raw(ok)))


# the one evaluation each surface's guarded route makes per point
EVALUATION = {"sphere": "_parts", "torus": "_cylinder", "ellipsoid": "_closest_t"}
ROUTES = {
    "distance_jet": lambda s, pts, nus: s.distance_jet(pts),
    "distance": lambda s, pts, nus: s.distance(pts),
    "closest_point": lambda s, pts, nus: s.closest_point(pts),
    "parallel_curvatures": lambda s, pts, nus: s.parallel_curvatures(pts),
    "area_ratio": lambda s, pts, nus: s.area_ratio(pts, nus),
    "mismatch_map": lambda s, pts, nus: mismatch_map(s, 0.0, pts),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("kind", sorted(GUARDED))
def test_each_guarded_route_evaluates_each_point_once(kind, route, monkeypatch):
    """Each guarded route reads its tube rule off the evaluation it guards:
    one ``_parts`` (sphere), ``_cylinder`` (torus) or Newton solve
    (``_closest_t``, ellipsoid) per call, on tube points on both sides."""
    s = GUARDED[kind]
    pts = s.tube_points(40, np.random.default_rng(3))
    nus = s._grad_raw(pts)[1]
    assert (s._distance_raw(pts) < 0.0).any() and (s._distance_raw(pts) > 0.0).any()
    calls = []
    original = getattr(s, EVALUATION[kind])

    def counting(x):
        calls.append(len(x))
        return original(x)

    monkeypatch.setattr(s, EVALUATION[kind], counting)
    ROUTES[route](s, pts, nus)
    assert calls == [len(pts)]


@settings(max_examples=60, deadline=None)
@given(axes=st.tuples(*[st.floats(0.3, 2.0)] * 3), seed=st.integers(0, 2**32 - 1))
def test_ellipsoid_hessian_matches_the_solve(axes, seed):
    """The closed-form ellipsoid D^2 d (the tangent eigenpairs of W mapped
    by kappa / (1 + d kappa), expanded by ``hessian_matrix``) agrees with
    W (I + d W)^-1 by a 3x3 solve out to 0.95 of the tube halfwidth, and
    annihilates the normal."""
    e = Ellipsoid(*axes)
    pts = e.tube_points(64, np.random.default_rng(seed), fill=0.95)
    d, g, norm = e._parts(pts)
    H = hessian_matrix(g, *e._hessian(pts, d, g, norm))
    ref = oracles.ellipsoid_hessian_solve(e.abc, pts, d, g)
    scale = np.linalg.norm(ref, axis=(1, 2))
    assert (np.abs(H - ref).max(axis=(1, 2)) <= 1e-12 * scale).all()
    assert (np.abs(np.einsum("nij,nj->ni", H, g)).max(axis=1) <= 1e-12 * scale).all()


def drawn_surface(kind, size):
    """A sphere of radius size[0], a torus of radii (size[0] + size[1],
    size[1]), or an ellipsoid with the sizes as semi-axes, longest first."""
    if kind == "sphere":
        return Sphere(size[0])
    if kind == "torus":
        return Torus(size[0] + size[1], size[1])
    return Ellipsoid(*sorted(size, reverse=True))


def delicate_points(surface):
    """Surface points where the principal frame is delicate: the four
    umbilics of an ellipsoid with a > b > c (xz-plane, x^2 = a^2 (a^2 - b^2)
    / (a^2 - c^2), z^2 = c^2 (b^2 - c^2) / (a^2 - c^2)), and the torus's top
    and bottom circles, where the toroidal curvature k_0 vanishes."""
    if surface.kind == "torus":
        R, r = surface.major_radius, surface.minor_radius
        phi = np.linspace(0.0, 2.0 * np.pi, 7)
        return np.concatenate([np.stack([R * np.cos(phi), R * np.sin(phi),
                                         np.full(7, z)], axis=1) for z in (r, -r)])
    if surface.kind == "sphere" or surface.abc[0] == surface.abc[2]:
        return np.empty((0, 3))
    a2, b2, c2 = surface.abc2
    x, z = np.sqrt(a2 * (a2 - b2) / (a2 - c2)), np.sqrt(c2 * (b2 - c2) / (a2 - c2))
    return np.array([[sx * x, 0.0, sz * z] for sx in (1, -1) for sz in (1, -1)])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(GUARDED)), size=st.tuples(*[st.floats(0.3, 2.0)] * 3),
       seed=st.integers(0, 2**32 - 1))
@example(kind="ellipsoid", size=(1.3, 1.0, 0.8), seed=0)  # four umbilics
@example(kind="ellipsoid", size=(2.0, 0.5, 0.3), seed=1)
@example(kind="torus", size=(0.6, 0.4, 1.0), seed=2)  # top and bottom circles, k_0 = 0
@example(kind="sphere", size=(0.7, 1.0, 1.0), seed=3)
def test_compact_hessian_matches_the_matrix_oracles(kind, size, seed):
    """``hessian_matrix(g, k, e)`` of the compact jet equals the (N, 3, 3)
    D^2 d of ``oracles`` (the sphere's (I - g g^T) / r, the torus's six
    written-out entries, the ellipsoid's Cayley-Hamilton form) to 1e-12 of
    its norm: on tube points out to 0.9 of the half-width on both sides,
    and at the delicate points, on the surface and moved along the normal."""
    s = drawn_surface(kind, size)
    rng = np.random.default_rng(seed)
    base = delicate_points(s)
    nu = s._grad_raw(base)[1]
    t = rng.uniform(-0.9, 0.9, (3, len(base), 1)) * s.tube_halfwidth()
    pts = np.concatenate([s.tube_points(64, rng, fill=0.9), base, *(base + t * nu)])
    d, g, k, e = s._jet_raw(pts)
    ref = oracles.hessian_matrix_reference(s, pts, d, g)
    err = np.linalg.norm(hessian_matrix(g, k, e) - ref, axis=(1, 2))
    assert (err <= 1e-12 * np.linalg.norm(ref, axis=(1, 2))).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("kind", sorted(GUARDED))
def test_public_routes_refuse_non_finite_points(kind, route):
    """A point with an inf or NaN coordinate ends in a ValueError that names
    it, with no RuntimeWarning and no NaN, for one point and in a batch."""
    s = GUARDED[kind]
    pts = s.tube_points(5, np.random.default_rng(3))
    nus = s._grad_raw(pts)[1]
    for bad in (np.inf, -np.inf, np.nan):
        x = pts.copy()
        x[2, 0] = bad
        with pytest.raises(ValueError, match=rf"non-finite coordinates \[{bad}\] in"):
            ROUTES[route](s, x, nus)
        with pytest.raises(ValueError, match="non-finite coordinates"):
            ROUTES[route](s, np.array([bad, 0.5, 0.5]), nus[0])
    if route == "area_ratio":
        with pytest.raises(ValueError, match="non-finite coordinates"):
            s.area_ratio(pts, np.where(np.arange(5)[:, None] == 1, np.nan, nus))


# ---------------------------------------------------------------------------
# closest points against brute force
# ---------------------------------------------------------------------------


# zeros, subnormals, ordinary values, and magnitudes whose squares overflow
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=5e-324, max_value=2.2e-308),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e199, max_value=1e201),
).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[_EDGE_FLOATS] * 6), max_size=12), split=st.booleans())
def test_row_helpers_equal_numpy_reductions(rows, split):
    """row_norm and row_dot are bit-identical to np.linalg.norm(v, axis=-1)
    and np.sum(a * b, axis=-1), overflow to inf and NaN included, on (N, 3)
    and (N, 2, 3) stacks."""
    ab = np.array(rows, dtype=float).reshape(-1, 2, 3)
    a, b = (ab, ab[:, ::-1]) if split else (ab[:, 0], ab[:, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(row_norm(a), np.linalg.norm(a, axis=-1))
        assert np.array_equal(row_dot(a, b), np.sum(a * b, axis=-1), equal_nan=True)


_CROSS_FLOATS = st.one_of(_EDGE_FLOATS, st.sampled_from([np.inf, -np.inf, np.nan]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(*[_CROSS_FLOATS] * 6), min_size=1, max_size=12))
def test_row_cross_equals_np_cross(rows):
    """row_cross is np.cross bit for bit, inf, NaN and overflow included: on
    (N, 3) pairs, on (N, 2, 3) stacks, broadcast (N, 1, 3) against (N, 2, 3)
    as ``fem.triangle_geometry`` takes it, and a 3-vector against (N, 3)."""
    ab = np.array(rows, dtype=float).reshape(-1, 2, 3)
    a, b = ab[:, 0], ab[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for x, y in ((a, b), (ab, ab[:, ::-1]), (ab[:, :1], ab), (a[0], b), (a, b[-1])):
            got, want = row_cross(x, y), np.cross(x, y)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_torus_closest_point_brute_force():
    R, r = 1.0, 0.4
    s = Torus(R, r)
    pts = tube_sample(s, 4, fill=0.7)
    for x in pts:
        ref, dist = oracles.brute_force_closest_point_torus(R, r, x)
        assert np.linalg.norm(s.closest_point(x) - ref) < 1e-6
        assert abs(s.distance(x)) == pytest.approx(dist, abs=1e-9)


def test_ellipsoid_closest_point_brute_force():
    abc = (1.3, 1.0, 0.8)
    s = Ellipsoid(*abc)
    pts = tube_sample(s, 4, fill=0.6)
    for x in pts:
        ref, dist = oracles.brute_force_closest_point_ellipsoid(abc, x)
        p = s.closest_point(x)
        # brute force is accurate to ~1e-5 after its refinement passes
        assert np.linalg.norm(p - ref) < 5e-5
        assert abs(s.distance(x)) <= dist + 1e-9


def test_ellipsoid_closest_point_next_to_coordinate_plane():
    """A coordinate of -2.2e-16 (linspace rounding) must not pull the
    closest point to the pole of that axis."""
    abc = (1.46314886, 1.08850141, 0.67721055)
    x = np.array([[-0.951047, -0.634031, -2.2e-16]])
    ref, dist = oracles.brute_force_closest_point_ellipsoid(abc, x[0])
    s = Ellipsoid(*abc)  # x lies deeper than the conservative tube: raw calls
    assert np.linalg.norm(s._project_raw(x)[0] - ref) < 5e-5
    assert s._distance_raw(x)[0] == pytest.approx(-dist, abs=1e-9)


def test_ellipsoid_newton_starts_one_step_from_the_surface(monkeypatch):
    """The closest-point Newton starts at the larger of the per-axis lower
    bound and one step from t = 0: on the quadrature nodes of the level-4
    mesh it converges within 3 iterations (8 from the bound alone), and on
    those nodes and on tube points its roots agree with the bound's to
    1e-15 max a^2."""
    e = Ellipsoid(1.3, 1.0, 0.8)
    mesh = build_sphere_mesh(e, 4)
    nodes = TRI_DEGREE4.physical_points(mesh.vertices[mesh.triangles]).reshape(-1, 3)
    tube = e.tube_points(20000, np.random.default_rng(11))
    t = e._closest_t(nodes)[0]
    monkeypatch.setattr(beltrami.geometry, "NEWTON_MAX_ITER", 3)
    assert np.array_equal(e._closest_t(nodes)[0], t)
    monkeypatch.undo()
    for pts in (nodes, tube):
        ref, iterations = oracles.ellipsoid_closest_t_from_lower_bound(e.abc, pts)
        assert iterations > 3
        assert np.abs(e._closest_t(pts)[0] - ref).max() <= 1e-15 * e.abc2.max()


@settings(max_examples=60, deadline=None)
@given(
    axes=st.tuples(*[st.floats(0.3, 2.0)] * 3),
    spheroid=st.booleans(),
    n=st.integers(4, 16),
)
def test_ellipsoid_closest_point_at_every_lattice_vertex(axes, spheroid, n):
    """Bulk vertices include the center and the focal sets; everywhere P
    lies on the surface along the normal and is no farther than the axis
    vertices or the scaled-radial lift."""
    a, b, c = axes
    s = Ellipsoid(a, b, b if spheroid else c)
    bulk = build_bulk_mesh(s, n)
    x = bulk.vertex_points(np.arange(bulk.n_vertices))
    d = s._distance_raw(x)
    p = s._project_raw(x)
    assert np.isfinite(d).all()
    assert np.abs(s.level_value(p)).max() <= 1e-10
    u = x - p
    assert np.allclose(np.linalg.norm(u, axis=1), np.abs(d), rtol=0.0, atol=1e-12)
    nrm = p / s.abc2
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    assert np.linalg.norm(np.cross(u, nrm), axis=1).max() <= 1e-9
    poles = np.concatenate([np.diag(s.abc), -np.diag(s.abc)])
    bound = np.linalg.norm(x[:, None, :] - poles[None], axis=2).min(axis=1)
    r = np.sqrt(s.level_value(x) + 1.0)
    off = r > 1e-12
    radial = np.linalg.norm(x[off] - x[off] / r[off, None], axis=1)
    bound[off] = np.minimum(bound[off], radial)
    assert (np.abs(d) <= bound + 1e-12).all()


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("abc", [(1.3, 1.0, 0.8), (1.0, 0.8, 0.6), (2.0, 0.5, 0.3)])
def test_ellipsoid_curvatures_closed_form(abc):
    """Gauss and (twice the) mean curvature of the ellipsoid in closed form."""
    s = Ellipsoid(*abc)
    p = s.surface_points(500, np.random.default_rng(11))
    kap = s.parallel_curvatures(p)
    a2b2c2 = np.prod(s.abc2)
    m = np.linalg.norm(p / s.abc2, axis=1)
    gauss = 1.0 / (a2b2c2 * m**4)
    mean2 = (s.abc2.sum() - np.sum(p**2, axis=1)) / (a2b2c2 * m**3)
    assert np.allclose(kap[:, 0] * kap[:, 1], gauss, rtol=1e-10, atol=0.0)
    assert np.allclose(kap.sum(axis=1), mean2, rtol=1e-10, atol=0.0)


def test_torus_curvatures_exact():
    R, r = 1.0, 0.4
    s = Torus(R, r)
    pts = s.surface_points(50, np.random.default_rng(5))
    kap = np.sort(s.parallel_curvatures(pts), axis=1)
    for x, k in zip(pts, kap):
        exact = np.sort(oracles.torus_exact_curvatures(R, r, x))
        assert np.abs(k - exact).max() < 1e-8


def test_sphere_curvatures_and_bound():
    s = Sphere(0.8)
    pts = tube_sample(s, 60)
    kap = s.parallel_curvatures(pts)
    r = np.linalg.norm(pts, axis=1)
    assert np.allclose(kap, 1.0 / r[:, None], atol=1e-10)
    assert s.max_curvature() == pytest.approx(1.25)
    assert s.tube_halfwidth() == pytest.approx(0.4)


def test_parallel_curvature_identity_ellipsoid():
    """kappa_i at x relates to kappa_i at P(x) through d."""
    s = Ellipsoid(1.2, 1.0, 0.7)
    pts = tube_sample(s, 40)
    d = s.distance(pts)
    k_x = np.sort(s.parallel_curvatures(pts), axis=1)
    k_p = s.parallel_curvatures(s.closest_point(pts))
    pred = np.sort(k_p / (1.0 + d[:, None] * k_p), axis=1)
    assert np.abs(k_x - pred).max() < 2e-5 * s.max_curvature()


# ---------------------------------------------------------------------------
# area ratio and lifted gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("surface", [Sphere(1.0), Torus(1.0, 0.4)], ids=repr)
def test_area_ratio_matches_plane_jacobian(surface):
    """q/q_Gamma equals the in-plane Jacobian of the closest-point map."""
    pts = tube_sample(surface, 15, fill=0.5)
    rng = np.random.default_rng(11)
    for x in pts:
        nu = rng.normal(size=3)
        nu /= np.linalg.norm(nu)
        _, g = surface._grad_raw(x[None])
        dot = float(g[0] @ nu)
        nu = np.copysign(1.0, dot) * nu
        if abs(dot) < 0.5:
            nu = g[0]  # keep the plane transversal to the surface
        ratio = float(surface.area_ratio(x[None], nu[None])[0])
        jac = oracles.plane_jacobian(
            lambda y: surface._project_raw(np.atleast_2d(y))[0], x, nu, 1e-6
        )
        assert ratio == pytest.approx(jac, rel=1e-5, abs=1e-7)


def test_torus_hessian_is_rank_two():
    """(tau tau^T + (u / rho) phi phi^T) / s equals the Hessian summed from
    the Hessians of rho and of the core-circle distance."""
    s = Torus(1.0, 0.4)
    pts = s.tube_points(5000, np.random.default_rng(17))
    _, _, H = s.distance_jet(pts)
    ref = oracles.torus_hessian_outer_products(s.major_radius, pts)
    err = np.linalg.norm(H - ref, axis=(1, 2))
    assert (err <= 1e-12 * np.linalg.norm(ref, axis=(1, 2))).all()


@pytest.mark.parametrize("kind", sorted(GUARDED))
def test_jet_shares_the_gradient(kind):
    """``_distance_raw``, the raw and guarded jets carry the (d, grad d) of
    ``_grad_raw`` on tube points, bit for bit: all read one ``_parts``.  The
    torus Hessian is checked by ``test_torus_hessian_is_rank_two``."""
    s = GUARDED[kind]
    pts = s.tube_points(2000, np.random.default_rng(23))
    d_ref, g_ref = s._grad_raw(pts)
    assert np.array_equal(s._distance_raw(pts), d_ref)
    for route in (s._jet_raw, s._guarded_jet):
        d, g = route(pts)[:2]
        assert np.array_equal(d, d_ref) and np.array_equal(g, g_ref)


CLOSED_FORMS = {
    "sphere": (Sphere(1.0), lambda pts: oracles.sphere_distance(1.0, pts)),
    "torus": (Torus(1.0, 0.4), lambda pts: oracles.torus_distance(1.0, 0.4, pts)),
}


@pytest.mark.parametrize("kind", sorted(CLOSED_FORMS))
def test_distance_is_the_closed_form(kind):
    """The sphere's and torus's ``_distance_raw``, the d of ``_parts``, equal
    |x| - R and sqrt((sqrt(x^2 + y^2) - R)^2 + z^2) - r bit for bit: on tube points
    and on the vertices that bulk-mesh culling keeps and evaluates."""
    s, closed_form = CLOSED_FORMS[kind]
    pts = s.tube_points(2000, np.random.default_rng(31))
    assert np.array_equal(s._distance_raw(pts), closed_form(pts))
    bulk = build_bulk_mesh(s, 48)
    _, _, vids, d = bulk._near_surface(s, 1.5 * bulk.h)
    assert len(vids) > 1000
    assert np.array_equal(d, closed_form(bulk.vertex_points(vids)))


def test_torus_cylinder_agrees_with_hypot():
    """``Torus._cylinder`` takes rho = sqrt(x^2 + y^2) and s = sqrt(u^2 + z^2),
    u = rho - R, without hypot: each is within 2 ulp of hypot's, on tube
    points and on points out to 1e150 (the squares stay normal from 1e-150),
    and ``_outside`` gives hypot's verdicts there and next to the axis and
    the core circle, where the squares underflow."""
    R, r = 1.0, 0.4
    s = Torus(R, r)
    rng = np.random.default_rng(37)
    far = rng.standard_normal((4000, 3)) * 10.0 ** rng.uniform(-150, 150, (4000, 1))
    for pts in (s.tube_points(4000, rng), far):
        rho, u, dist = s._cylinder(pts)
        for got, want in ((rho, np.hypot(pts[:, 0], pts[:, 1])), (dist, np.hypot(u, pts[:, 2]))):
            assert np.all(np.isfinite(got))
            assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))
    scale = 10.0 ** rng.uniform(-320, -5, (4000, 1))
    circle = np.column_stack([np.cos(np.linspace(0.0, 6.0, 4000)) * R,
                              np.sin(np.linspace(0.0, 6.0, 4000)) * R, np.zeros(4000)])
    axis = np.column_stack([np.zeros((4000, 2)), rng.uniform(-2.0, 2.0, 4000)])
    for pts in (far, axis + scale * rng.standard_normal((4000, 3)),
                circle + scale * rng.standard_normal((4000, 3))):
        d, _, parts = s._parts(pts)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        want = (rho < 1e-12 * R) | (np.hypot(rho - R, pts[:, 2]) < 1e-12 * r)
        assert want.any() or pts is far
        assert np.array_equal(s._outside(d, parts), want)


@pytest.mark.parametrize("radii", [(1.0, 0.4), (2.5, 0.3), (1.0, 0.9)])
def test_torus_jet_equals_the_tangent_outer_products(radii):
    """d, grad d and the compact (k, e) = ((u / (rho s), 1 / s), phi) are
    the values the stacked-tangent sums of ``oracles`` are built from, bit
    for bit, and D^2 d expanded from (k, e) is their D^2 d to 1e-12 of its
    norm."""
    s = Torus(*radii)
    pts = s.tube_points(3000, np.random.default_rng(29))
    jet = s._jet_raw(pts)
    ref_d, ref_g, ref_H, ref_k, ref_phi = oracles.torus_jet_tangent_outer_products(*radii, pts)
    assert all(np.array_equal(a, b) for a, b in zip(jet, (ref_d, ref_g, ref_k, ref_phi)))
    _, g, k, e = jet
    err = np.linalg.norm(hessian_matrix(g, k, e) - ref_H, axis=(1, 2))
    assert (err <= 1e-12 * np.linalg.norm(ref_H, axis=(1, 2))).all()


@settings(max_examples=60, deadline=None)
@given(R=st.floats(0.5, 4.0), ratio=st.floats(0.05, 0.9), phi=st.floats(-np.pi, np.pi),
       theta=st.floats(-np.pi, np.pi), offset=st.floats(-0.9, 0.9),
       seed=st.integers(0, 2**32 - 1))
@example(R=1.0, ratio=0.4, phi=0.3, theta=np.pi / 2, offset=0.0, seed=1)  # top circle
@example(R=1.0, ratio=0.4, phi=-2.0, theta=-np.pi / 2, offset=0.5, seed=2)  # bottom circle
@example(R=1.0, ratio=0.4, phi=1.1, theta=np.pi, offset=0.0, seed=3)  # inner equator
@example(R=2.0, ratio=0.3, phi=np.pi, theta=0.7, offset=0.0, seed=4)  # branch cut, y = +0
@example(R=2.0, ratio=0.3, phi=-np.pi, theta=0.7, offset=-0.5, seed=5)  # branch cut, y = -0
@example(R=1.0, ratio=0.4, phi=np.pi / 2, theta=2.0, offset=0.0, seed=6)  # x = 0
@example(R=1.0, ratio=0.4, phi=0.0, theta=0.0, offset=0.0, seed=7)  # y = 0 = z
def test_torus_manufactured_closed_forms_match_the_angle_forms(R, ratio, phi, theta,
                                                                offset, seed):
    """u, grad_Gamma u and f without angles equal the arctan2/sin/cos forms
    of ``oracles`` within 1e-13 of their scale, on one drawn point (at a
    normal offset of ``offset`` tube half-widths, coordinates within 1e-12
    of zero set to a signed zero), surface points and tube points."""
    s = Torus(R, ratio * R)
    r = s.minor_radius
    rng = np.random.default_rng(seed)
    t = r + offset * s.tube_halfwidth()
    rho = R + t * np.cos(theta)
    x = np.array([rho * np.cos(phi), rho * np.sin(phi), t * np.sin(theta)])
    x = np.where(np.abs(x) < 1e-12 * R, np.copysign(0.0, x), x)
    pts = np.concatenate([x[None], s.surface_points(40, rng), s.tube_points(40, rng)])
    sol = s.manufactured()
    ref = oracles.torus_manufactured_by_angles(R, r, pts)
    for got, want in zip((sol.u(pts), sol.grad_gamma(pts), sol.f(pts)), ref):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # a single point keeps its shape
    for got, want in zip((sol.u(x), sol.grad_gamma(x), sol.f(x)), ref):
        assert np.shape(got) == np.shape(want[0])


@pytest.mark.parametrize("surface", SURFACES, ids=repr)
def test_area_ratio_invariants_match_tangent_curvatures(surface):
    """(1 - d k_0)(1 - d k_1) from the jet's tangent curvatures equals
    1 - d tr W + d^2 (tr^2 W - |W|^2) / 2 from the invariants of the
    expanded W = ``hessian_matrix(g, k, e)``."""
    pts = surface.tube_points(2000, np.random.default_rng(19))
    d, g, k, e = surface._jet_raw(pts)
    H = hessian_matrix(g, k, e)
    rng = np.random.default_rng(23)
    tilted = g + 0.3 * rng.normal(size=g.shape)
    tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
    nus = np.where((np.einsum("ni,ni->n", g, tilted) > 0.1)[:, None], tilted, g)
    tr = np.trace(H, axis1=1, axis2=2)
    det = 0.5 * (tr**2 - np.einsum("nij,nij->n", H, H))
    ref = (1.0 - d * tr + d**2 * det) * np.einsum("ni,ni->n", g, nus)
    ratio = surface.area_ratio(pts, nus)
    assert np.abs(ratio - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("surface", [Sphere(1.0), Torus(1.0, 0.4), Ellipsoid(1.3, 1.0, 0.8)],
                         ids=repr)
def test_workspace_hat_values_are_node_barycentrics(surface):
    """At the facet quadrature nodes, placed on the corners as the workspace
    places them, the hat values are the reference nodes' barycentrics, the
    rule's ``points`` that the load reads, whatever the facet."""
    if surface.kind == "torus":
        mesh = build_torus_mesh(surface, 16, 8)
    else:
        mesh = build_sphere_mesh(surface, 2)
    ws = parametric_workspace(ParametricProblem(surface, mesh))
    coords = ws["vertices"][ws["dofs"]]
    phi = oracles.barycentric_values(ws["grads"], coords, TRI_DEGREE4.physical_points(coords))
    bary = np.broadcast_to(TRI_DEGREE4.points, (len(coords),) + TRI_DEGREE4.points.shape)
    assert bary.shape == phi.shape
    assert np.abs(bary - phi).max() <= 1e-14


def test_lifted_tangential_gradient_chain_rule():
    """(I - d D2d) grad_gamma(P(x)), then projected: check against FD."""
    s = Torus(1.0, 0.4)
    sol = s.manufactured()
    pts = tube_sample(s, 10, fill=0.5)
    _, g = s._grad_raw(pts)
    grad_exact = s._jet_lifted_gradient(*s._jet_raw(pts), g, sol.grad_gamma(s.closest_point(pts)))

    def ext(y):
        return float(sol.u(s.closest_point(np.atleast_2d(y))[0]))

    for x, ge in zip(pts, grad_exact):
        g_fd = oracles.fd_gradient(ext, x, 1e-5)
        assert np.abs(g_fd - ge).max() < 1e-6


# ---------------------------------------------------------------------------
# manufactured solutions: u, grad, f consistency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("surface", [Sphere(1.0), Torus(1.0, 0.4),
                                     Ellipsoid(1.3, 1.0, 0.8)], ids=repr)
def test_manufactured_f_is_minus_laplace_beltrami_of_u(surface):
    sol = surface.manufactured()
    pts = surface.surface_points(8, np.random.default_rng(7))
    for x in pts:
        lb = oracles.laplace_beltrami_reference(
            lambda y: float(sol.u(y)),
            lambda y: surface.closest_point(np.atleast_2d(y))[0],
            x,
        )
        assert -lb == pytest.approx(float(sol.f(x)), rel=2e-4, abs=2e-4)


@pytest.mark.parametrize("surface", SURFACES, ids=repr)
def test_manufactured_gradient_is_tangential_and_consistent(surface):
    sol = surface.manufactured()
    pts = surface.surface_points(40, np.random.default_rng(9))
    g_gamma = sol.grad_gamma(pts)
    _, nu = surface._grad_raw(pts)
    assert np.abs(np.einsum("nd,nd->n", g_gamma, nu)).max() < 1e-10
    # directional FD along a tangent curve on the surface
    rng = np.random.default_rng(10)
    t = rng.normal(size=pts.shape)
    t -= np.einsum("nd,nd->n", t, nu)[:, None] * nu
    t /= np.linalg.norm(t, axis=1)[:, None]
    eps = 1e-5
    up = sol.u(surface.closest_point(pts + eps * t))
    dn = sol.u(surface.closest_point(pts - eps * t))
    fd = (up - dn) / (2 * eps)
    assert np.abs(fd - np.einsum("nd,nd->n", g_gamma, t)).max() < 1e-6


ELLIPSOIDS = [Ellipsoid(1.3, 1.0, 0.8), Ellipsoid(1.0, 0.8, 0.8), Ellipsoid(2.0, 0.5, 0.3)]


def assert_matches_jet_forcing(e, pts, f):
    d, g = e._grad_raw(pts)
    ref = oracles.ellipsoid_forcing_from_jet(e.abc, pts, d, g)
    assert (np.abs(f - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0)).all()


@pytest.mark.parametrize("lift", [CLOSEST_POINT, SCALED_RADIAL])
@pytest.mark.parametrize("e", ELLIPSOIDS, ids=repr)
def test_ellipsoid_forcing_on_the_surface_skips_the_newton_solve(e, lift, monkeypatch):
    """Lift images lie on the surface to rounding, so f takes d = 0 and
    grad d = nu there instead of solving for the closest point, and still
    equals the jet formula with the solved d, grad d and D^2 d."""
    pts = e.tube_points(400, np.random.default_rng(4))
    # the chart's area ratio, unused here, takes any normals
    pts = e._project_raw(pts) if lift == CLOSEST_POINT else e._scaled_radial_raw(pts, pts)[0]
    solves = []
    closest_t = e._closest_t

    def counting(x):
        solves.append(len(x))
        return closest_t(x)

    monkeypatch.setattr(e, "_closest_t", counting)
    f = e.manufactured().f(pts)
    assert solves == []
    monkeypatch.undo()
    assert_matches_jet_forcing(e, pts, f)


@pytest.mark.parametrize("e", ELLIPSOIDS, ids=repr)
def test_ellipsoid_laplacian_of_d_is_the_curvature_form(e):
    """tr D^2 d from the mean and Gauss curvatures at the closest point,
    (H + 2 d K) / (1 + d H + d^2 K), equals the trace of the 3x3 solve
    W (I + d W)^-1 (``oracles``) and of the compact jet to 1e-14 relative:
    on tube points out to 0.95 of the half-width, on surface points, and at
    and next to the umbilics, on the surface and off it along the normal."""
    rng = np.random.default_rng(43)
    umbilics = delicate_points(e)
    near = (umbilics + 1e-9 * rng.standard_normal((8,) + umbilics.shape)).reshape(-1, 3)
    near = np.concatenate([umbilics, e._project_raw(near)])
    nu = e._grad_raw(near)[1]
    t = rng.uniform(-0.9, 0.9, (2, len(near), 1)) * e.tube_halfwidth()
    pts = np.concatenate([e.tube_points(2000, rng, fill=0.95), e.surface_points(500, rng),
                          near, *(near + t * nu)])
    d, g, norm = e._parts(pts)
    ref = np.trace(oracles.ellipsoid_hessian_solve(e.abc, pts, d, g), axis1=1, axis2=2)
    trace = e._laplacian_d(d, g, norm)
    assert (np.abs(trace - ref) <= 1e-14 * np.abs(ref)).all()
    k = e._hessian(pts, d, g, norm)[0]
    assert (np.abs(trace - (k[:, 0] + k[:, 1])) <= 1e-14 * np.abs(ref)).all()


@pytest.mark.parametrize("e", ELLIPSOIDS, ids=repr)
def test_ellipsoid_forcing_builds_no_hessian(e, monkeypatch):
    """f reads tr D^2 d off ``_parts`` (``_laplacian_d``): with ``_hessian``,
    ``plane_basis`` and ``np.hypot`` raising it still gives the jet formula,
    on and off the surface, and each off-surface point takes one Newton
    solve.  The compact jet, which does build D^2 d, takes one as well."""
    rng = np.random.default_rng(6)
    off = e.tube_points(300, rng)
    pts = np.concatenate([e._project_raw(off[:100]), off])
    solves, closest_t = [], e._closest_t

    def counting(x):
        solves.append(len(x))
        return closest_t(x)

    def forbidden(*args):
        raise AssertionError("the forcing built a Hessian")

    monkeypatch.setattr(e, "_closest_t", counting)
    monkeypatch.setattr(e, "_hessian", forbidden)
    monkeypatch.setattr(beltrami.geometry, "plane_basis", forbidden)
    monkeypatch.setattr(np, "hypot", forbidden)
    f = e.manufactured().f(pts)
    assert solves == [len(off)]
    monkeypatch.undo()
    assert_matches_jet_forcing(e, pts, f)
    monkeypatch.setattr(e, "_closest_t", counting)
    solves.clear()
    e._guarded_jet(off)
    assert solves == [len(off)]


@pytest.mark.parametrize("e", ELLIPSOIDS, ids=repr)
def test_ellipsoid_forcing_off_the_surface_follows_the_jet(e):
    """Off the surface (the narrow band's mismatch-map images) f is the
    jet formula at the point itself."""
    pts = e.tube_points(400, np.random.default_rng(5))
    assert (np.abs(e.level_value(pts)) > 1e-13).all()
    assert_matches_jet_forcing(e, pts, e.manufactured().f(pts))


def test_sphere_forcing_extends_through_projection():
    """Off the surface f equals the ambient Laplacian of the extension."""
    s = Sphere(1.0)
    sol = s.manufactured()
    pts = tube_sample(s, 6, fill=0.5)

    def ext(y):
        return float(sol.u(s.closest_point(np.atleast_2d(y))[0]))

    for x in pts:
        lap = oracles.fd_laplacian_4th(ext, x, 2e-3)
        assert float(sol.f(x)) == pytest.approx(-lap, rel=5e-5, abs=5e-5)


def test_torus_forcing_extends_through_projection():
    s = Torus(1.0, 0.4)
    sol = s.manufactured()
    pts = tube_sample(s, 6, fill=0.4)

    def ext(y):
        return float(sol.u(s.closest_point(np.atleast_2d(y))[0]))

    for x in pts:
        lap = oracles.fd_laplacian_4th(ext, x, 1e-3)
        assert float(sol.f(x)) == pytest.approx(-lap, rel=5e-5, abs=5e-5)


@pytest.mark.parametrize("surface", SURFACES, ids=repr)
def test_manufactured_data_is_odd(surface):
    """u and f are odd under x -> -x, which is an isometry of every
    surface here; zero surface mean (data compatibility) follows exactly.
    """
    sol = surface.manufactured()
    pts = surface.surface_points(200, np.random.default_rng(12))
    assert np.abs(sol.u(-pts) + sol.u(pts)).max() < 1e-12
    assert np.abs(sol.f(-pts) + sol.f(pts)).max() < 1e-10


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def test_scaled_radial_lift_lands_on_surface():
    e = Ellipsoid(1.3, 1.0, 0.8)
    pts = tube_sample(e, 80, fill=0.5)
    p, _ = e._scaled_radial_raw(pts, pts)
    assert np.abs(e._distance_raw(p)).max() < 1e-9
    # central ray: the scaled coordinates of x and P are colinear
    a = pts / np.array([1.3, 1.0, 0.8])
    b = p / np.array([1.3, 1.0, 0.8])
    cross = np.linalg.norm(np.cross(a, b), axis=1)
    assert cross.max() < 1e-9 * np.linalg.norm(a, axis=1).max()


@settings(max_examples=40, deadline=None)
@given(axes=st.tuples(*[st.floats(0.3, 2.0)] * 3), ball=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_scaled_radial_chart_area_ratio(axes, ball, seed):
    """The chart's closed-form ratio is the area scaling of x -> x / s(x)
    on the facet plane, here against central differences; on a ball the
    chart is the closest-point map and the ratio the distance jet's."""
    e = Ellipsoid(*(axes[:1] * 3 if ball else axes))
    rng = np.random.default_rng(seed)
    pts = e.tube_points(16, rng)
    _, g = e._grad_raw(pts)
    nus = g + 0.1 * rng.standard_normal(g.shape)
    nus /= row_norm(nus)[:, None]
    _, ratio = e._scaled_radial_raw(pts, nus)
    for x, nu, r in zip(pts, nus, ratio):
        jac = oracles.plane_jacobian(
            lambda y: e._scaled_radial_raw(y[None], nu[None])[0][0], x, nu, 1e-6)
        assert r == pytest.approx(jac, rel=1e-6)
    if ball:
        jet_ratio = e._jet_area_ratio(*e._jet_raw(pts), nus)
        assert (np.abs(ratio - jet_ratio) <= 1e-13 * np.abs(jet_ratio)).all()


# ---------------------------------------------------------------------------
# construction and config
# ---------------------------------------------------------------------------


def test_surface_from_config_round_trip():
    s = surface_from_config({"kind": "sphere", "radius": 2.0})
    assert isinstance(s, Sphere) and s.radius == 2.0
    t = surface_from_config({"kind": "torus", "major_radius": 1.0,
                             "minor_radius": 0.25})
    assert isinstance(t, Torus)
    e = surface_from_config({"kind": "ellipsoid", "a": 1.2, "b": 1.0, "c": 0.9})
    assert isinstance(e, Ellipsoid)
    bad = [{"kind": "moebius"}, {"kind": 1},
           {"kind": "sphere", "radius": np.nan}, {"kind": "sphere", "radius": True},
           {"kind": "torus", "major_radius": "1", "minor_radius": 0.4}]
    for spec in bad:
        with pytest.raises(UnsupportedSurface):
            surface_from_config(spec)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Sphere(-1.0)
    with pytest.raises(ValueError):
        Torus(0.3, 0.4)  # needs r < R
    with pytest.raises(ValueError):
        Ellipsoid(1.0, -2.0, 0.5)


@pytest.mark.parametrize("spec", [
    {"kind": "sphere"},
    {"kind": "torus", "major_radius": 1.0},
    {"kind": "ellipsoid", "a": 1.3, "c": 0.8},
], ids=["sphere", "torus", "ellipsoid"])
def test_surface_from_config_names_a_missing_parameter(spec):
    with pytest.raises(UnsupportedSurface, match="missing"):
        surface_from_config(spec)


def test_scaled_radial_lift_refuses_the_center():
    e = Ellipsoid(1.3, 1.0, 0.8)
    pts = np.array([[0.5, 0.2, 0.1], [0.0, 0.0, 0.0]])
    with pytest.raises(RayMiss, match="center"):
        e._scaled_radial_raw(pts, np.tile([0.0, 0.0, 1.0], (2, 1)))


def test_single_point_and_batch_shapes_agree():
    s = Torus(1.0, 0.4)
    x = np.array([1.3, 0.1, 0.12])
    assert np.isscalar(float(s.distance(x)))
    assert s.closest_point(x).shape == (3,)
    batch = s.closest_point(x[None])
    assert batch.shape == (1, 3)
    assert np.allclose(batch[0], s.closest_point(x))
