"""Distance-jet, projection, and manufactured-data checks for the surfaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beltrami import (
    CLOSEST_POINT,
    SCALED_RADIAL,
    Ellipsoid,
    OutsideTube,
    Sphere,
    Torus,
    UnsupportedSurface,
    build_bulk_mesh,
    surface_from_config,
)

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


# ---------------------------------------------------------------------------
# closest points against brute force
# ---------------------------------------------------------------------------


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
    x = build_bulk_mesh(s, n).vertices
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


def test_lifted_tangential_gradient_chain_rule():
    """(I - d D2d) grad_gamma(P(x)), then projected: check against FD."""
    s = Torus(1.0, 0.4)
    sol = s.manufactured()
    pts = tube_sample(s, 10, fill=0.5)
    _, g = s._grad_raw(pts)
    grad_exact = s.lifted_tangential_gradient(pts, g, sol.grad_gamma(s.closest_point(pts)))

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
    p = e.generic_lift(pts, SCALED_RADIAL)
    assert np.abs(e._distance_raw(p)).max() < 1e-9
    # central ray: the scaled coordinates of x and P are colinear
    a = pts / np.array([1.3, 1.0, 0.8])
    b = p / np.array([1.3, 1.0, 0.8])
    cross = np.linalg.norm(np.cross(a, b), axis=1)
    assert cross.max() < 1e-9 * np.linalg.norm(a, axis=1).max()


def test_lifts_coincide_on_sphere():
    s = Sphere(1.0)
    pts = tube_sample(s, 60)
    assert np.allclose(
        s.generic_lift(pts, CLOSEST_POINT), s.generic_lift(pts, SCALED_RADIAL),
        atol=1e-12,
    )


def test_generic_lift_rejects_unknown_name():
    with pytest.raises(ValueError):
        Sphere(1.0).generic_lift(np.array([[0.0, 0.0, 1.1]]), "nearest")


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
    with pytest.raises(UnsupportedSurface):
        surface_from_config({"kind": "moebius"})


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Sphere(-1.0)
    with pytest.raises(ValueError):
        Torus(0.3, 0.4)  # needs r < R
    with pytest.raises(ValueError):
        Ellipsoid(1.0, -2.0, 0.5)


def test_single_point_and_batch_shapes_agree():
    s = Torus(1.0, 0.4)
    x = np.array([1.3, 0.1, 0.12])
    assert np.isscalar(float(s.distance(x)))
    assert s.closest_point(x).shape == (3,)
    batch = s.closest_point(x[None])
    assert batch.shape == (1, 3)
    assert np.allclose(batch[0], s.closest_point(x))
