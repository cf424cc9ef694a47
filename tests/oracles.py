"""Independent reference implementations backing the test suite.

Everything in this module is computed from first principles (dense
parameter-space sampling, finite differences, dense linear algebra,
hand-worked element matrices) so that library output is always compared
against a second route, never against itself.  Nothing here imports the
package under test; where a check needs a library callable (for example
a closest-point map), the callable is passed in as an argument.
"""

import itertools

import numpy as np
import scipy.sparse as sp

# ---------------------------------------------------------------------------
# surface parametrizations (used only for brute-force sampling)
# ---------------------------------------------------------------------------


def ellipsoid_points(abc, n_theta, n_phi, theta_window=None, phi_window=None):
    """Grid of points on the ellipsoid (x/a)^2 + (y/b)^2 + (z/c)^2 = 1.

    theta in (0, pi) is the polar angle, phi in [0, 2 pi) the azimuth.
    Optional windows restrict the grid for local refinement.
    """
    a, b, c = abc
    t0, t1 = theta_window if theta_window is not None else (1e-9, np.pi - 1e-9)
    p0, p1 = phi_window if phi_window is not None else (0.0, 2.0 * np.pi)
    theta = np.linspace(t0, t1, n_theta)
    phi = np.linspace(p0, p1, n_phi)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    pts = np.stack(
        [a * np.sin(T) * np.cos(P), b * np.sin(T) * np.sin(P), c * np.cos(T)],
        axis=-1,
    )
    return pts.reshape(-1, 3), T.ravel(), P.ravel()


def torus_points(R, r, n_phi, n_theta, phi_window=None, theta_window=None):
    """Grid of points on the torus with major radius R, minor radius r."""
    p0, p1 = phi_window if phi_window is not None else (0.0, 2.0 * np.pi)
    t0, t1 = theta_window if theta_window is not None else (0.0, 2.0 * np.pi)
    phi = np.linspace(p0, p1, n_phi)
    theta = np.linspace(t0, t1, n_theta)
    P, T = np.meshgrid(phi, theta, indexing="ij")
    rho = R + r * np.cos(T)
    pts = np.stack([rho * np.cos(P), rho * np.sin(P), r * np.sin(T)], axis=-1)
    return pts.reshape(-1, 3), P.ravel(), T.ravel()


def _argmin_point(pts, x):
    d2 = np.sum((pts - x) ** 2, axis=1)
    k = int(np.argmin(d2))
    return k, np.sqrt(d2[k])


def brute_force_closest_point_ellipsoid(abc, x):
    """Closest point on an ellipsoid by dense sampling plus local refinement.

    Stage one scans a 1000 x 1000 parameter grid (10^6 surface samples);
    two shrinking window passes then localize the minimizer to well below
    1e-4 in the point and the distance.
    """
    x = np.asarray(x, dtype=float)
    pts, T, P = ellipsoid_points(abc, 1000, 1000)
    k, _ = _argmin_point(pts, x)
    t_best, p_best = T[k], P[k]
    dt = np.pi / 999.0
    dp = 2.0 * np.pi / 999.0
    for shrink in range(2):
        tw = (max(t_best - 2 * dt, 1e-9), min(t_best + 2 * dt, np.pi - 1e-9))
        pw = (p_best - 2 * dp, p_best + 2 * dp)
        pts, T, P = ellipsoid_points(abc, 201, 201, tw, pw)
        k, dist = _argmin_point(pts, x)
        t_best, p_best = T[k], P[k]
        dt = (tw[1] - tw[0]) / 200.0
        dp = (pw[1] - pw[0]) / 200.0
    return pts[k], dist


def brute_force_closest_point_torus(R, r, x):
    """Closest point on a torus by dense sampling plus local refinement."""
    x = np.asarray(x, dtype=float)
    pts, P, T = torus_points(R, r, 1000, 1000)
    k, _ = _argmin_point(pts, x)
    p_best, t_best = P[k], T[k]
    dp = dt = 2.0 * np.pi / 999.0
    for shrink in range(2):
        pw = (p_best - 2 * dp, p_best + 2 * dp)
        tw = (t_best - 2 * dt, t_best + 2 * dt)
        pts, P, T = torus_points(R, r, 201, 201, pw, tw)
        k, dist = _argmin_point(pts, x)
        p_best, t_best = P[k], T[k]
        dp = (pw[1] - pw[0]) / 200.0
        dt = (tw[1] - tw[0]) / 200.0
    return pts[k], dist


def sphere_distance(R, pts):
    """Signed distance |x| - R to the sphere of radius R about the origin."""
    return np.linalg.norm(np.asarray(pts, dtype=float), axis=1) - R


def torus_distance(R, r, pts):
    """Signed distance sqrt((sqrt(x^2 + y^2) - R)^2 + z^2) - r to the torus
    around the z-axis with core radius R and tube radius r."""
    x, y, z = np.asarray(pts, dtype=float).T
    rho = np.sqrt(x * x + y * y)
    return np.sqrt((rho - R) * (rho - R) + z * z) - r


def torus_hessian_outer_products(R, pts):
    """D^2 d of the torus around the z-axis with core radius R, summed from
    the Hessians of rho = |(x, y)| and s = |(rho - R, z)|:
    (grad rho grad rho^T + (rho - R) D^2 rho + e_z e_z^T - g g^T) / s."""
    pts = np.asarray(pts, dtype=float)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    u = rho - R
    s = np.hypot(u, pts[:, 2])
    grad_rho = np.stack([pts[:, 0] / rho, pts[:, 1] / rho, np.zeros(len(pts))], axis=1)
    ez = np.zeros_like(grad_rho)
    ez[:, 2] = 1.0
    g = (u[:, None] * grad_rho + pts[:, 2:3] * ez) / s[:, None]
    outer = lambda a, b: a[:, :, None] * b[:, None, :]
    d2rho = (np.diag([1.0, 1.0, 0.0])[None] - outer(grad_rho, grad_rho)) / rho[:, None, None]
    return (outer(grad_rho, grad_rho) + u[:, None, None] * d2rho + outer(ez, ez)
            - outer(g, g)) / s[:, None, None]


def torus_jet_tangent_outer_products(R, r, pts):
    """(d, grad d, D^2 d, k, phi) of the torus around the z-axis with core
    radius R and tube radius r, with D^2 d = (tau tau^T + (u / rho) phi
    phi^T) / s summed over all nine entries from stacked tangents: phi the
    toroidal unit tangent and tau = phi x grad d the poloidal one, with rho
    and s clamped at 1e-300 as the library clamps them.  k = (u / (rho s),
    1 / s) holds the curvatures along phi and tau that D^2 d is built from;
    rho = sqrt(x^2 + y^2) and s = sqrt(u^2 + z^2) as the library takes them."""
    pts = np.asarray(pts, dtype=float)
    rho = np.sqrt(pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1])
    u = rho - R
    s = np.sqrt(u * u + pts[:, 2] * pts[:, 2])
    rho = np.where(rho < 1e-300, 1e-300, rho)
    s = np.where(s < 1e-300, 1e-300, s)
    g = np.column_stack([u * (pts[:, 0] / rho), u * (pts[:, 1] / rho), pts[:, 2]])
    g /= s[:, None]
    phi = np.stack([-pts[:, 1] / rho, pts[:, 0] / rho, np.zeros(len(pts))], axis=1)
    tau = np.cross(phi, g)
    H = phi[:, :, None] * phi[:, None, :]
    H *= (u / rho)[:, None, None]
    for i in range(3):
        for j in range(3):
            H[:, i, j] += tau[:, i] * tau[:, j]
    H /= s[:, None, None]
    return s - r, g, H, np.column_stack([u / rho / s, 1.0 / s]), phi


def torus_manufactured_by_angles(R, r, x):
    """(u, grad_Gamma u, f) of u = sin(3 phi) cos(theta) on the torus, from
    the angle phi = arctan2(y, x) and the gradients of rho, phi and theta.

    u and grad_Gamma u read cos(theta) = (rho - R)/r and sin(theta) = z/r;
    grad_Gamma u is projected on the plane normal to (cos(theta) grad rho
    + sin(theta) e_z).  f = sin(3 phi) [cos(theta)/s^2 - sin^2(theta)/(rho s)
    + 9 cos(theta)/rho^2] with cos(theta) = (rho - R)/s, sin(theta) = z/s and
    s the distance to the core circle."""
    x = np.asarray(x, dtype=float)
    rho = np.hypot(x[..., 0], x[..., 1])
    phi = np.arctan2(x[..., 1], x[..., 0])
    cos_t = (rho - R) / r
    sin_t = x[..., 2] / r
    u = np.sin(3.0 * phi) * cos_t
    grad_rho = np.stack([x[..., 0] / rho, x[..., 1] / rho, np.zeros_like(rho)], axis=-1)
    grad_phi = np.stack([-x[..., 1] / rho**2, x[..., 0] / rho**2, np.zeros_like(rho)], axis=-1)
    ez = np.zeros_like(grad_rho)
    ez[..., 2] = 1.0
    # grad theta = (-z grad_rho + (rho - R) e_z) / r^2 on the surface
    grad_theta = (-x[..., 2:3] * grad_rho + (rho - R)[..., None] * ez) / r**2
    gu = (3.0 * np.cos(3.0 * phi)[..., None] * cos_t[..., None] * grad_phi
          - np.sin(3.0 * phi)[..., None] * sin_t[..., None] * grad_theta)
    nu = cos_t[..., None] * grad_rho + sin_t[..., None] * ez
    grad_gamma = gu - np.sum(gu * nu, axis=-1)[..., None] * nu
    s = np.hypot(rho - R, x[..., 2])
    cos_s, sin_s = (rho - R) / s, x[..., 2] / s
    f = np.sin(3.0 * phi) * (cos_s / s**2 - sin_s**2 / (rho * s) + 9.0 * cos_s / rho**2)
    return u, grad_gamma, f


def ellipsoid_hessian_solve(abc, pts, d, g):
    """D^2 d = W (I + d W)^-1 of the ellipsoid with semi-axes abc at pts,
    given d and grad d there, by a batched 3x3 solve.  W is the Weingarten
    map at the closest point P = x - d g: Pi diag(a^-2) Pi / |P / a^2| with
    Pi = I - g g^T."""
    abc2 = np.asarray(abc, dtype=float) ** 2
    eye = np.eye(3)
    n = (pts - d[:, None] * g) / abc2
    proj = eye - g[:, :, None] * g[:, None, :]
    W = (proj / abc2) @ proj / np.linalg.norm(n, axis=1)[:, None, None]
    return np.linalg.solve(eye + d[:, None, None] * W, W)


def ellipsoid_forcing_from_jet(abc, pts, d, g):
    """f = nu^T D^2(xyz) nu + (grad(xyz) . nu) tr D^2 d for u = xyz on the
    ellipsoid, with nu the level-set normal at pts and D^2 d from
    ``ellipsoid_hessian_solve`` at every point (d, g passed in)."""
    abc2 = np.asarray(abc, dtype=float) ** 2
    nu = pts / abc2
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    x, y, z = pts.T
    quad = 2.0 * (z * nu[:, 0] * nu[:, 1] + y * nu[:, 0] * nu[:, 2] + x * nu[:, 1] * nu[:, 2])
    gu = np.stack([y * z, x * z, x * y], axis=1)
    trH = np.trace(ellipsoid_hessian_solve(abc, pts, d, g), axis1=1, axis2=2)
    return quad + np.einsum("ni,ni->n", gu, nu) * trH


def sphere_hessian_matrix(pts):
    """D^2 d = (I - g g^T) / r of the sphere about the origin, g = x / r."""
    r = np.linalg.norm(pts, axis=1)
    g = pts / r[:, None]
    return (np.eye(3) - g[:, :, None] * g[:, None, :]) / r[:, None, None]


def torus_hessian_entries(R, pts):
    """D^2 d = (tau tau^T + (u / rho) phi phi^T) / s of the torus around the
    z-axis with core radius R, its six distinct entries written out from
    the toroidal phi = (-sn, c, 0), (c, sn) = (x, y) / rho, and the poloidal
    unit tangent tau = phi x g, g = grad d."""
    pts = np.asarray(pts, dtype=float)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    u = rho - R
    s = np.hypot(u, pts[:, 2])
    c, sn = pts[:, 0] / rho, pts[:, 1] / rho
    g = np.column_stack([u * c / s, u * sn / s, pts[:, 2] / s])
    t0, t1 = c * g[:, 2], sn * g[:, 2]
    t2 = -(sn * g[:, 1]) - c * g[:, 0]
    k = u / rho
    H = np.empty((len(pts), 3, 3))
    H[:, 0, 0] = (sn * sn * k + t0 * t0) / s
    H[:, 1, 1] = (c * c * k + t1 * t1) / s
    H[:, 2, 2] = t2 * t2 / s
    H[:, 0, 1] = H[:, 1, 0] = (-(sn * c) * k + t0 * t1) / s
    H[:, 0, 2] = H[:, 2, 0] = t0 * t2 / s
    H[:, 1, 2] = H[:, 2, 1] = t1 * t2 / s
    return H


def ellipsoid_hessian_cayley_hamilton(abc, pts, d, g):
    """D^2 d = W (I + d W)^-1 of the ellipsoid with semi-axes abc at pts,
    given d and grad d there, with W = Pi diag(a^-2) Pi / |P / a^2| at the
    closest point P = x - d g, Pi = I - g g^T.  W g = 0, so Cayley-Hamilton
    on the tangent plane inverts I + d W in closed form:
    ((1 + d tr W) W - d W^2) / (1 + d tr W + d^2 det W), with the tangent
    determinant det W = (tr^2 W - |W|_F^2) / 2."""
    abc2 = np.asarray(abc, dtype=float) ** 2
    n = (pts - d[:, None] * g) / abc2
    proj = np.eye(3) - g[:, :, None] * g[:, None, :]
    W = (proj / abc2) @ proj / np.linalg.norm(n, axis=1)[:, None, None]
    tr = np.trace(W, axis1=1, axis2=2)
    det = 0.5 * (tr**2 - np.einsum("nij,nij->n", W, W))
    H = (1.0 + d * tr)[:, None, None] * W - d[:, None, None] * (W @ W)
    return H / (1.0 + d * tr + d**2 * det)[:, None, None]


def hessian_matrix_reference(surface, pts, d, g):
    """The (N, 3, 3) D^2 d of ``surface`` at pts by its kind's written-out
    body above; d and g, the library's jet at pts, serve the ellipsoid."""
    if surface.kind == "sphere":
        return sphere_hessian_matrix(pts)
    if surface.kind == "torus":
        return torus_hessian_entries(surface.major_radius, pts)
    return ellipsoid_hessian_cayley_hamilton(surface.abc, pts, d, g)


def spectral_norm_indicators(d, g, H, normals):
    """Per-facet lambda_T and beta_T from the full jet at each facet's
    samples: d (F, n), g (F, n, 3), H (F, n, 3, 3), facet unit normals
    (F, 3).  lambda_T is the largest singular value over the samples of the
    3x2 columns c_i = (DP - I) t_i = -g (g . t_i) - d H t_i on an in-plane
    basis t1, t2 (``plane_basis``), beta_T the largest |d|."""
    c1, c2 = (-(g * np.einsum("nki,ni->nk", g, t)[:, :, None]
                + d[:, :, None] * np.einsum("nkij,nj->nki", H, t))
              for t in np.array([plane_basis(nu) for nu in normals]).transpose(1, 0, 2))
    a = np.einsum("...d,...d->...", c1, c1)
    b = np.einsum("...d,...d->...", c2, c2)
    c = np.einsum("...d,...d->...", c1, c2)
    disc = np.sqrt(np.maximum(0.25 * (a - b) ** 2 + c**2, 0.0))
    lam = np.sqrt(np.maximum(0.5 * (a + b) + disc, 0.0))
    return lam.max(axis=1), np.abs(d).max(axis=1)


def plane_gram_lambda(jet, normals):
    """Per face of unit normal (F, 3) the largest singular value over its
    samples, ``jet`` (d, grad d, k, e) at as many per face in face order, of
    DP - I on the face's plane: DP - I is diag(-1, -d k_0, -d k_1) on (g, e,
    g x e), so on an in-plane basis t1, t2 (``plane_basis``) its Gram matrix
    is G_ij = q delta_ij + (1 - q) a_i a_j + (p - q) b_i b_j with a_i = g . t_i,
    b_i = e . t_i, p = (d k_0)^2 and q = (d k_1)^2."""
    t1, t2 = np.array([plane_basis(nu) for nu in normals]).transpose(1, 0, 2)
    d, g, k, e = (a.reshape((len(normals), -1) + a.shape[1:]) for a in jet)
    p, q = (d * k[..., 0]) ** 2, (d * k[..., 1]) ** 2
    a1, a2, b1, b2 = (np.einsum("fnd,fd->fn", v, t) for v in (g, e) for t in (t1, t2))
    G11, G22 = (q + (1.0 - q) * a * a + (p - q) * b * b for a, b in ((a1, b1), (a2, b2)))
    G12 = (1.0 - q) * a1 * a2 + (p - q) * b1 * b2
    top = 0.5 * (G11 + G22) + np.sqrt(0.25 * (G11 - G22) ** 2 + G12 * G12)
    return np.sqrt(np.maximum(top, 0.0)).max(axis=1)


def outside_tube_mask(surface, pts):
    """The points (N, 3) where the surface's distance jet is rejected, by
    each kind's rule on its own evaluation of the geometry: the sphere's
    center; the torus's z-axis and core circle; inside the ellipsoid,
    points at least the conservative tube half-width deep, measured with
    the library's signed distance ``surface._distance_raw``."""
    if surface.kind == "sphere":
        return np.linalg.norm(pts, axis=1) < 1e-12 * surface.radius
    if surface.kind == "torus":
        R, r = surface.major_radius, surface.minor_radius
        rho = np.hypot(pts[:, 0], pts[:, 1])
        return (rho < 1e-12 * R) | (np.hypot(rho - R, pts[:, 2]) < 1e-12 * r)
    abc = surface.abc
    q = pts**2 / abc**2
    inside = q[:, 0] + q[:, 1] + q[:, 2] - 1.0 < 0.0
    bad = np.zeros(len(pts), dtype=bool)
    if inside.any():
        halfwidth = 0.5 / (abc.max() / abc.min() ** 2)
        bad[inside] = np.abs(surface._distance_raw(pts[inside])) >= halfwidth
    return bad


def ellipsoid_closest_t_from_lower_bound(abc, pts):
    """(t, iterations) of Newton on sum (a_i x_i)^2 / (a_i^2 + t)^2 = 1 from
    the per-axis lower bound max_i(|a_i x_i| - a_i^2) alone, axes with
    |a_i x_i| <= 1e-12 max a^2 left out of the sum, steps clamped at <= 0,
    until every step is within 1e-13 (max a^2 + |t|)."""
    abc2 = np.asarray(abc, dtype=float) ** 2
    scale = abc2.max()
    w = np.abs(np.sqrt(abc2) * pts)
    live = w > 1e-12 * scale
    w = np.where(live, w, 0.0)
    t = np.max(w - abc2, axis=1)
    done = np.zeros(len(pts), dtype=bool)
    for it in range(1, 51):
        den = np.where(live, abc2 + t[:, None], 1.0)
        g = np.sum(w**2 / den**2, axis=1) - 1.0
        slope = -2.0 * np.sum(w**2 / den**3, axis=1)
        step = np.where(done, 0.0, np.minimum(g / np.where(slope == 0.0, -1.0, slope), 0.0))
        t = t - step
        done |= np.abs(step) <= 1e-13 * (scale + np.abs(t))
        if done.all():
            return t, it
    raise AssertionError("Newton from the lower bound did not converge")


def torus_exact_curvatures(R, r, point):
    """Principal curvatures of the torus surface at an on-surface point.

    Poloidal curvature 1/r and toroidal curvature cos(theta)/(R + r cos(theta)),
    from the standard parametrization.
    """
    x, y, z = point
    rho = np.hypot(x, y)
    cos_t = (rho - R) / r
    return 1.0 / r, cos_t / (R + r * cos_t)


# ---------------------------------------------------------------------------
# finite-difference machinery
# ---------------------------------------------------------------------------


def fd_gradient(f, x, h):
    """Central-difference gradient of scalar f at a single 3-point."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_hessian(f, x, h):
    """Central-difference Hessian (symmetrized) of scalar f at a 3-point."""
    x = np.asarray(x, dtype=float)
    H = np.zeros((3, 3))
    fx = f(x)
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h
        H[i, i] = (f(x + ei) - 2.0 * fx + f(x - ei)) / h**2
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = h
            H[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h**2)
            H[j, i] = H[i, j]
    return H


def fd_laplacian_4th(f, x, h):
    """Fourth-order accurate finite-difference Laplacian of scalar f."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        total += (
            -f(x + 2 * e) + 16 * f(x + e) - 30 * f(x) + 16 * f(x - e) - f(x - 2 * e)
        ) / (12.0 * h**2)
    return total


def laplace_beltrami_reference(u, closest_point, x, h=1e-3):
    """Reference value of the surface Laplacian of u at an on-surface point.

    Builds the normal extension v = u(closest_point(.)), for which the
    ambient Laplacian restricted to the surface equals the surface
    Laplacian, and differentiates it with the fourth-order stencil.
    `closest_point` must accept and return a single 3-point.
    """

    def v(y):
        return float(u(np.asarray(closest_point(y), dtype=float)))

    return fd_laplacian_4th(v, x, h)


def plane_jacobian(mapping, x, nu, step):
    """Area scaling of `mapping` restricted to the plane orthogonal to nu.

    Central differences along two orthonormal in-plane directions; the
    scaling is the norm of the cross product of the two image columns.
    """
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    t1, t2 = plane_basis(nu)
    c1 = (mapping(x + step * t1) - mapping(x - step * t1)) / (2.0 * step)
    c2 = (mapping(x + step * t2) - mapping(x - step * t2)) / (2.0 * step)
    return np.linalg.norm(np.cross(c1, c2))


def plane_basis(nu):
    """Two orthonormal vectors spanning the plane orthogonal to unit nu."""
    nu = np.asarray(nu, dtype=float)
    k = int(np.argmin(np.abs(nu)))
    e = np.zeros(3)
    e[k] = 1.0
    t1 = e - nu * nu[k]
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(nu, t1)
    return t1, t2


# ---------------------------------------------------------------------------
# mesh connectivity
# ---------------------------------------------------------------------------


def unique_rows_edge_table(triangles):
    """Edge table from the unique sorted rows of the (3T, 2) vertex pairs:
    edges (E, 2) in lexicographic order and the edge id opposite each
    local vertex, (T, 3)."""
    triangles = np.asarray(triangles)
    pairs = np.sort(
        np.concatenate([triangles[:, [1, 2]], triangles[:, [2, 0]], triangles[:, [0, 1]]]),
        axis=1,
    )
    edges, inv = np.unique(pairs, axis=0, return_inverse=True)
    return edges, inv.reshape(3, len(triangles)).T


def orient_outward(vertices, triangles, grad):
    """The triangles, flipped where (p1 - p0) x (p2 - p0) opposes ``grad``
    (points -> (N, 3) normals) at the centroid."""
    coords = vertices[triangles]
    n = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    flip = np.einsum("td,td->t", n, grad((coords[:, 0] + coords[:, 1] + coords[:, 2]) / 3)) < 0
    return np.where(flip[:, None], triangles[:, [0, 2, 1]], triangles)


def radial_icosphere(R, level, faces):
    """Icosphere of radius R by radial projection, before orientation and
    edge rotation: the regular icosahedron (golden-ratio vertices, numbered
    as ``faces`` expects) pushed to |x| = R, then ``level`` rounds of 4-way
    subdivision with each edge midpoint m placed at R m / |m|.  Midpoints
    follow the edges in lexicographic order; the children of all triangles
    come in four blocks, the corner ones at v0, v1, v2, then the middle one."""
    p = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([[-1, p, 0], [1, p, 0], [-1, -p, 0], [1, -p, 0],
                  [0, -1, p], [0, 1, p], [0, -1, -p], [0, 1, -p],
                  [p, 0, -1], [p, 0, 1], [-p, 0, -1], [-p, 0, 1]], dtype=float)
    v = v / np.linalg.norm(v[0])
    v = R * v / np.linalg.norm(v, axis=-1, keepdims=True)
    t = np.array(faces)
    for _ in range(level):
        edges, opposite = unique_rows_edge_table(t)
        mids = 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])
        m = len(v) + opposite
        v = np.vstack([v, R * mids / np.linalg.norm(mids, axis=-1, keepdims=True)])
        t = np.concatenate([
            np.stack([t[:, 0], m[:, 2], m[:, 1]], axis=1),
            np.stack([t[:, 1], m[:, 0], m[:, 2]], axis=1),
            np.stack([t[:, 2], m[:, 1], m[:, 0]], axis=1),
            m,
        ])
    return v, t


def torus_grid(R, r, n_major, n_minor):
    """Torus grid mesh before orientation and edge rotation: vertex (i, j)
    at the angles (2 pi i / n_major, 2 pi j / n_minor); quad (v00, v10, v11,
    v01) splits along (v00, v11) unless (v10, v01) is strictly shorter, into
    two consecutive triangles."""
    phi = 2.0 * np.pi * np.arange(n_major) / n_major
    theta = 2.0 * np.pi * np.arange(n_minor) / n_minor
    P, T = np.meshgrid(phi, theta, indexing="ij")
    rho = R + r * np.cos(T)
    v = np.stack([rho * np.cos(P), rho * np.sin(P), r * np.sin(T)], axis=-1).reshape(-1, 3)
    i = np.repeat(np.arange(n_major), n_minor)
    j = np.tile(np.arange(n_minor), n_major)
    v00, v10 = i * n_minor + j, (i + 1) % n_major * n_minor + j
    v11, v01 = (i + 1) % n_major * n_minor + (j + 1) % n_minor, i * n_minor + (j + 1) % n_minor
    use_a = (np.linalg.norm(v[v00] - v[v11], axis=1)
             <= np.linalg.norm(v[v10] - v[v01], axis=1))[:, None]
    t = np.empty((2 * len(v00), 3), dtype=np.int64)
    t[0::2] = np.where(use_a, np.stack([v00, v10, v11], axis=1), np.stack([v00, v10, v01], axis=1))
    t[1::2] = np.where(use_a, np.stack([v00, v11, v01], axis=1), np.stack([v10, v11, v01], axis=1))
    return v, t


# ---------------------------------------------------------------------------
# dense linear-algebra references
# ---------------------------------------------------------------------------


def dense_solve_mean_zero(A, b, m):
    """Direct solve of the singular Neumann-type system via a saddle point.

    Solves [[A, m], [m^T, 0]] [x; lam] = [b; 0] with dense LU, which picks
    the unique solution of A x = b (projected consistent) with m-weighted
    mean zero.  Completely independent of any iterative machinery.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m = np.asarray(m, dtype=float)
    n = A.shape[0]
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = A
    K[:n, n] = m
    K[n, :n] = m
    rhs = np.concatenate([b, [0.0]])
    sol = np.linalg.solve(K, rhs)
    return sol[:n]


def eig_extremes_mean_zero(A, iters=5000, seed=7):
    """(lambda_min, lambda_max) of symmetric A on the plain mean-zero subspace.

    Power iteration on the deflated operator and on its spectral complement
    (shift by a Gershgorin upper bound); no dense eigensolver involved.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    rng = np.random.default_rng(seed)

    def deflate(v):
        return v - v.mean()

    # largest eigenvalue on the subspace
    v = deflate(rng.standard_normal(n))
    for _ in range(iters):
        v = deflate(A @ v)
        v /= np.linalg.norm(v)
    lam_max = float(v @ A @ v)

    shift = float(np.max(np.sum(np.abs(A), axis=1)))  # Gershgorin bound
    w = deflate(rng.standard_normal(n))
    for _ in range(iters):
        w = deflate(shift * w - A @ w)
        w /= np.linalg.norm(w)
    lam_min = shift - float(w @ (shift * w - A @ w))
    return lam_min, lam_max


def hand_square_patch():
    """Unit square split into two right triangles, with its exact P1 stiffness.

    Vertices (0,0), (1,0), (1,1), (0,1); triangles (0,1,2) and (0,2,3).
    The 4x4 stiffness matrix is worked out on paper from the constant
    element gradients.
    """
    vertices = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    triangles = np.array([[0, 1, 2], [0, 2, 3]])
    K = np.array(
        [
            [1.0, -0.5, 0.0, -0.5],
            [-0.5, 1.0, -0.5, 0.0],
            [0.0, -0.5, 1.0, -0.5],
            [-0.5, 0.0, -0.5, 1.0],
        ]
    )
    return vertices, triangles, K


def exact_load_linear(tri, coeff, const):
    """Exact integrals of hat functions against a linear field on a triangle.

    For l(x) = coeff . x + const on triangle T with vertices v_i,
    int_T phi_i l = |T| (2 l(v_i) + l(v_j) + l(v_k)) / 12.
    """
    tri = np.asarray(tri, dtype=float)
    area = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0]))
    lv = tri @ np.asarray(coeff, dtype=float) + const
    out = np.empty(3)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out[i] = area * (2.0 * lv[i] + lv[j] + lv[k]) / 12.0
    return out


def einsum_physical_points(points, coords):
    """Quadrature nodes (nq, k) mapped into elements coords (E, k, 3)."""
    return np.einsum("qk,ekd->eqd", points, coords)


def barycentric_values(grads, coords, points):
    """Hat-function values at physical points inside each element, by the
    affine identity lambda_i(x) = 1/k + g_i . (x - centroid).
    grads (E, k, 3), coords (E, k, 3), points (E, nq, 3) -> (E, nq, k)."""
    k = coords.shape[1]
    rel = points - (sum(coords[:, i] for i in range(k)) / k)[:, None, :]
    return 1.0 / k + rel @ grads.transpose(0, 2, 1)


def einsum_barycentric_values(grads, coords, points):
    """Hat values (E, nq, k) at points (E, nq, 3) from constant gradients,
    lambda_i(x) = 1/k + g_i . (x - centroid)."""
    rel = points - coords.mean(axis=1)[:, None, :]
    return 1.0 / coords.shape[1] + np.einsum("ekd,eqd->eqk", grads, rel)


def einsum_element_stiffness(grads, measures):
    """Element matrices (E, k, k) |T| g_i . g_j."""
    return np.einsum("e,eid,ejd->eij", measures, grads, grads)


def einsum_element_load(phi, values, point_measures):
    """Element load vectors (E, k) sum_q w_q F_q phi_qi."""
    return np.einsum("eq,eq,eqk->ek", point_measures, values, phi)


def fit_loglog_slope(x, y):
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def eoc_pairs(errors, hs):
    """Consecutive-pair experimental orders, computed independently."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    return np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:])


# ---------------------------------------------------------------------------
# dense Kuhn lattice (reference for the implicit bulk mesh)
# ---------------------------------------------------------------------------


def tetrahedron_geometry(coords):
    """Barycentric gradients (E, 4, 3) and signed volumes (E,) of tetrahedra
    with corners coords (E, 4, 3), from a determinant and an inverse of the
    edge matrix J (rows x_i - x_0): lambda_{1..3} = J^-T (x - x_0)."""
    coords = np.asarray(coords, dtype=float)
    J = coords[:, 1:] - coords[:, :1]
    grads = np.empty((len(coords), 4, 3))
    grads[:, 1:] = np.transpose(np.linalg.inv(J), (0, 2, 1))
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return grads, np.linalg.det(J) / 6.0


def tetrahedron_barycentrics(coords, points):
    """Barycentric coordinates (E, 4) of points (E, 3), one per tetrahedron
    coords (E, 4, 3), by solving J^T lambda = x - x_0."""
    coords = np.asarray(coords, dtype=float)
    J = coords[:, 1:] - coords[:, :1]
    rest = np.linalg.solve(np.transpose(J, (0, 2, 1)), (points - coords[:, 0])[:, :, None])
    rest = rest[:, :, 0]
    return np.column_stack([1.0 - rest.sum(axis=1), rest])


def kuhn_corner_offsets():
    """Corner offsets (6, 4, 3) of the Kuhn tetrahedra of the unit cube,
    one per axis permutation p in lexicographic order: 0, e_p0,
    e_p0 + e_p1 and (1, 1, 1), the middle pair swapped where that makes
    the volume positive."""
    out = []
    for p in itertools.permutations(range(3)):
        e = np.eye(3, dtype=np.int64)[list(p)]
        c = np.array([0 * e[0], e[0], e[0] + e[1], e.sum(axis=0)])
        if np.linalg.det(c[1:]) < 0:
            c[[1, 2]] = c[[2, 1]]
        out.append(c)
    return np.array(out)


def dense_kuhn_lattice(half_width, n):
    """Every vertex (V, 3) and tetrahedron (6 n^3, 4) of the Kuhn lattice
    of [-a, a]^3: vertex (i, j, k) has id (i (n+1) + j) (n+1) + k and the
    tets of cell (i, j, k) are 6 ((i n + j) n + k) + Kuhn index."""
    s = n + 1
    coords = np.linspace(-half_width, half_width, s)
    grid = np.meshgrid(coords, coords, coords, indexing="ij")
    vertices = np.stack(grid, axis=-1).reshape(-1, 3)
    lowest = np.arange(s**3).reshape(s, s, s)[:-1, :-1, :-1].reshape(-1)
    offsets = kuhn_corner_offsets() @ (s * s, s, 1)
    return vertices, (lowest[:, None, None] + offsets).reshape(-1, 4)


def dense_cut_surface(vertices, tets, near, distance, orient, tables):
    """Cut surface marched through every lattice tetrahedron, as the
    library did while its lattice was dense; None when nothing is cut.
    ``edge_ends`` are the lattice ids of each cut vertex's edge.

    ``distance`` maps points to d, ``orient(vertices, faces)`` orients
    faces along grad d, ``tables`` are the library's cut-face pattern
    table and tet edges, and d with |d| < ``near`` becomes +-near on its
    side (0 counts as positive).  Faces come in tet order.
    """
    cut_faces, tet_edges = tables
    d = distance(vertices).copy()
    snap = np.abs(d) < near
    d[snap] = np.where(d[snap] < 0.0, -near, near)
    pattern = np.packbits((d < 0.0)[tets], axis=1, bitorder="little")[:, 0]
    cut = np.flatnonzero((pattern > 0) & (pattern < 15))
    if len(cut) == 0:
        return None
    local = cut_faces[pattern[cut]]
    present = local[:, :, 0] >= 0
    parents = np.repeat(cut, present.sum(axis=1))
    local = local[present]
    ends = tets[parents[:, None, None], tet_edges[local]]
    lo, hi = ends.min(axis=2), ends.max(axis=2)
    nv = len(vertices)
    uniq, inverse = np.unique(lo * nv + hi, return_inverse=True)
    a, b = np.divmod(uniq, nv)
    tvals = d[a] / (d[a] - d[b])
    cut_vertices = vertices[a] + tvals[:, None] * (vertices[b] - vertices[a])
    active = np.unique(tets[np.unique(parents)])
    return {
        "vertices": cut_vertices,
        "faces": orient(cut_vertices, inverse.reshape(-1, 3)),
        "edge_ends": np.stack([a, b], axis=1),
        "tvals": tvals,
        "parent_tet": parents,
        "active_dofs": active,
        "d_vertex": d[active],
    }


def projected_gradient_system(bulk, cut, surface, solution, rule):
    """The trace system (A, b, m) on ``cut`` and the element set it came
    from, assembled on the parent tetrahedra's hats: on each cut face the
    hats of the parent's four corners, their gradients (from the corners by
    ``tetrahedron_geometry``) projected into the face plane, their values
    at the quadrature nodes from the affine identity.  A comes from COO
    triplets, b is the load of F = f(P x) q/q_Gamma from ``closest_point``
    and ``area_ratio``, and m the load of the unit function.  ``rule`` is
    (barycentric nodes (nq, 3), normalized weights (nq,)) on the triangle.
    """
    tets = bulk.tet_vertices(cut.parent_tet)
    coords = bulk.vertex_points(tets)
    grads, _ = tetrahedron_geometry(coords)
    nus = cut.normals
    pg = grads - np.einsum("fkd,fd->fk", grads, nus)[:, :, None] * nus[:, None, :]
    qp = einsum_physical_points(rule[0], cut.vertices[cut.faces])
    flat, nq = qp.reshape(-1, 3), qp.shape[1]
    F = (solution.f(surface.closest_point(flat))
         * surface.area_ratio(flat, np.repeat(nus, nq, axis=0))).reshape(-1, nq)
    es = {"dofs": searched_dofs(cut.active_dofs, tets), "grads": pg, "qp": qp,
          "weights": cut.areas[:, None] * rule[1], "phi": barycentric_values(grads, coords, qp)}
    n = cut.n_active_dofs

    def load(values):
        contrib = einsum_element_load(es["phi"], values, es["weights"])
        return np.bincount(es["dofs"].ravel(), contrib.ravel(), minlength=n)

    return coo_stiffness(pg, cut.areas, es["dofs"], n), load(F), load(np.ones_like(F)), es


def dense_band(vertices, tets, distance, delta):
    """Band tetrahedra with min d < delta and max d > -delta over every
    lattice tetrahedron; None when the band is empty."""
    d = distance(vertices)
    ids = np.flatnonzero((d < delta)[tets].any(axis=1) & (d > -delta)[tets].any(axis=1))
    if len(ids) == 0:
        return None
    active = np.unique(tets[ids])
    return {"tet_ids": ids, "tets": tets[ids], "active_dofs": active,
            "d_vertex": d[active]}


def sorted_numbering(tets, lattice_ids, lattice_d):
    """DOFs of lattice tetrahedra (E, 4) numbered by sorting: the ascending
    unique vertex ids, each corner's position among them, and d looked up
    there by binary search in the ascending ``lattice_ids``."""
    active, inverse = np.unique(tets, return_inverse=True)
    return (active, inverse.reshape(tets.shape),
            lattice_d[np.searchsorted(lattice_ids, active)])


def searched_dofs(active, tets):
    """Positions of the corners ``tets`` in the ascending ``active`` ids by
    binary search, -1 where a corner is absent."""
    pos = np.minimum(np.searchsorted(active, tets), len(active) - 1)
    return np.where(active[pos] == tets, pos, -1)


def lattice_axis_edges(dofs, lattice_ids, stride):
    """Brute force for the axis edges of lattice tetrahedra: the corners
    ``dofs`` (E, 4) sorted by their ``lattice_ids``, which mask (E, 6)
    marks the corner pairs (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    of that order whose ids differ by 1, ``stride`` or ``stride``^2 (one
    step along one axis of the lattice), and, when every tet has the same
    count of them, those pairs numbered by ``np.unique`` of the rows, with
    each tet's pair ids in mask order: (chain, mask, pairs, ids)."""
    order = np.argsort(lattice_ids[dofs], axis=1, kind="stable")
    chain = np.take_along_axis(dofs, order, axis=1)
    ids = lattice_ids[chain]
    local = list(itertools.combinations(range(4), 2))
    mask = np.stack([np.isin(ids[:, b] - ids[:, a], (1, stride, stride**2))
                     for a, b in local], axis=1)
    both = np.stack([chain[:, [a, b]] for a, b in local], axis=1)[mask]
    pairs, inv = np.unique(both.reshape(-1, 2), axis=0, return_inverse=True)
    return chain, mask, pairs, inv.reshape(len(dofs), -1)


# ---------------------------------------------------------------------------
# tiny text-format readers (for export round trips)
# ---------------------------------------------------------------------------


def parse_off(text):
    """Read an ASCII OFF file into (vertices, faces)."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    assert tokens[0] == "OFF"
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4
    vertices = np.array(tokens[pos : pos + 3 * nv], dtype=float).reshape(nv, 3)
    pos += 3 * nv
    faces = []
    for _ in range(nf):
        k = int(tokens[pos])
        faces.append([int(t) for t in tokens[pos + 1 : pos + 1 + k]])
        pos += 1 + k
    return vertices, np.array(faces, dtype=int)


def parse_vtk_tets(text):
    """Read points and tetrahedral cells from a legacy ASCII VTK file."""
    lines = text.splitlines()
    points = None
    cells = []
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        if parts[:1] == ["POINTS"]:
            n = int(parts[1])
            vals = []
            i += 1
            while len(vals) < 3 * n:
                vals.extend(float(t) for t in lines[i].split())
                i += 1
            points = np.array(vals).reshape(n, 3)
            continue
        if parts[:1] == ["CELLS"]:
            k = int(parts[1])
            i += 1
            for _ in range(k):
                row = [int(t) for t in lines[i].split()]
                assert row[0] == 4
                cells.append(row[1:])
                i += 1
            continue
        i += 1
    return points, np.array(cells, dtype=int)


# ---------------------------------------------------------------------------
# adaptive loop from scratch (reference for the carried rounds)
# ---------------------------------------------------------------------------


def fresh_adapt_loop(lib, surface, mesh, max_iters, theta, lift):
    """The solve-estimate-mark-refine loop with every round sampled afresh.

    ``lib`` is the package under test, passed in; each round builds a
    problem that carries nothing from the round before, so the jet, the
    data and the geometric indicators are evaluated on the whole mesh.
    Returns (rows, mesh, field) with the rows of ``adapt_loop``.
    """
    rows = []
    for it in range(max_iters + 1):
        problem = lib.ParametricProblem(surface, mesh, lift=lift)
        ws = {}
        field, report = lib.parametric_solve(problem, workspace_out=ws)
        eta, _ = lib.residual_estimator(problem, field, ws)
        geo = lib.geometric_estimators(problem, ws)
        marked = lib.dorfler_mark(eta.values**2, theta) if it < max_iters else []
        rows.append({"iter": it, "n_dof": report.n_dof, "err_H1": report.err_H1,
                     "err_L2": report.err_L2, "eta": eta.total,
                     "lambda": geo["lambda"].total, "beta": geo["beta"].total,
                     "mu": geo["mu"].total, "n_marked": len(marked)})
        if it < max_iters:
            mesh = lib.refine_bisection(mesh, marked, surface)
    return rows, mesh, field


# ---------------------------------------------------------------------------
# bisection prolongations round by round (reference for the V-cycle ladder)
# ---------------------------------------------------------------------------


def per_level_hierarchy(meshes, project):
    """The prolongations of a chain of bisection-refined meshes, built round
    by round and densely.

    Each new vertex of a round is matched to the coarse edge (p0, p1)
    whose midpoint ``project`` maps onto it, bit for bit.  A round's map
    (nf, n) is the identity on the n old vertices and gives each new one
    1/2 on each of its parents.  Returns one map per round.
    """
    maps = []
    for coarse, fine in zip(meshes, meshes[1:]):
        n, nf = len(coarse.vertices), len(fine.vertices)
        pairs = sorted({tuple(sorted(p)) for t in coarse.triangles.tolist()
                        for p in itertools.combinations(t, 2)})
        x = coarse.vertices
        mids = project(np.array([0.5 * (x[a] + x[b]) for a, b in pairs]).reshape(-1, 3))
        by_point = {m.tobytes(): pair for m, pair in zip(mids, pairs)}
        level = np.array([by_point[v.tobytes()] for v in fine.vertices[n:]], dtype=np.int64)
        step = np.eye(nf, n)
        for v, (a, b) in enumerate(level, start=n):
            step[v, a] = step[v, b] = 0.5
        maps.append(step)
    return maps


# ---------------------------------------------------------------------------
# one-call face sampling and int64 COO assembly (references for the blocked
# sampler and the int32 triplets)
# ---------------------------------------------------------------------------


def one_call_sample_faces(es, surface, solution, forcing=True):
    """The face sampler as one call over the whole set: the guarded compact
    jet (d, g, k, e) at every quadrature node, then F = f(P_d x) q/q_Gamma
    (with ``forcing``), u(P_d x) and the lifted tangential gradient, from
    the surface's own jet helpers.  Returns a dict of those entries."""
    flat = es["qp"].reshape(-1, 3)
    nus = np.repeat(es["normals"], es["qp"].shape[1], axis=0)
    d, g, k, e = jet = surface._guarded_jet(flat)
    lifted = flat - d[:, None] * g
    out = {"jet": jet, "u_exact": solution.u(lifted),
           "grad_exact": surface._jet_lifted_gradient(d, g, k, e, nus,
                                                      solution.grad_gamma(lifted))}
    if forcing:
        F = solution.f(lifted) * surface._jet_area_ratio(d, g, k, e, nus)
        out["forcing"] = F.reshape(es["weights"].shape)
    return out


def one_call_face_deviations(surface, vertices, faces, qp, normals, node_jet):
    """Samples (F * 9, 3) at the quadrature nodes ``qp`` and vertices of the
    faces, and per face the max |d| and max |grad d - nu_F| over them, all
    nine stacked in one array.  ``node_jet`` is (d, grad d) at the nodes."""
    n_f = len(faces)
    d_v, g_v = surface._grad_raw(vertices)
    d_q, g_q = node_jet
    d = np.hstack([d_q.reshape(n_f, -1), d_v[faces]])
    g = np.hstack([g_q.reshape(n_f, -1, 3), g_v[faces]])
    dev = np.linalg.norm(g - normals[:, None, :], axis=-1)
    flat = np.hstack([qp, vertices[faces]]).reshape(-1, 3)
    return flat, np.abs(d).max(axis=1), dev.max(axis=1)


def coo_stiffness(grads, measures, dofs, n_dof):
    """CSR stiffness from the E k^2 COO triplets of the element matrices,
    which scipy sorts and sums per entry; no edge numbering involved."""
    elem = (grads * measures[:, None, None]) @ grads.transpose(0, 2, 1)
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n_dof, n_dof)).tocsr()


# ---------------------------------------------------------------------------
# whole-set band forcing and error norms (references for the blocked routes)
# ---------------------------------------------------------------------------


def weighted_error_norms(w, u_exact, grad_exact, u_values, u_gradients):
    """Mean-matched L2 and H1 errors from one weighted sum over all samples:
    sqrt(sum w e^2 - (sum w e)^2 / sum w), e = u_exact - u_values, and
    sqrt(sum w |grad_exact - u_gradients|^2), the gradients broadcast."""
    e = u_exact - u_values
    total = w.sum()
    mean = w @ e / total
    diff = grad_exact - u_gradients
    return (np.sqrt(max(float(w @ e**2 - total * mean**2), 0.0)),
            np.sqrt(float(w @ np.einsum("...d,...d->...", diff, diff).ravel())))


def whole_set_error_norms(es, c, bary):
    """``weighted_error_norms`` of the P1 field c on a sampled facet or
    cut-face set es at once: c's values at the nodes ``bary`` (nq, 3) of
    every face, its gradient per face against the (E nq, 3) exact samples."""
    c_local = c[es["dofs"]]
    return weighted_error_norms(
        es["weights"].ravel(), es["u_exact"], es["grad_exact"].reshape(-1, len(bary), 3),
        np.einsum("qk,ek->eq", bary, c_local).ravel(),
        np.einsum("ek,ekd->ed", c_local, es["grads"])[:, None])


def whole_band_forcing(problem, quad, bary):
    """The narrow-band forcing over the whole band in one call: the nodes
    (E, nq, 3) of every band tet at ``bary`` (nq, 4), f through the mismatch
    map x + (d_h - d) grad d at those where ``quad["inside"]`` is on (0
    elsewhere).  Returns those values before the mean correction, the
    ``quad["weights"]`` mean of them as one whole-set sum (the correction)
    and the band measure."""
    qp = problem.bulk.tet_points(problem.band.tet_ids, bary)
    flat, d_h = qp.reshape(-1, 3), quad["d_h"].ravel()
    nodes = np.flatnonzero(quad["inside"])
    d, g = problem.surface._guarded_grad(flat[nodes])
    raw = np.zeros(len(flat))
    raw[nodes] = problem.solution.f(flat[nodes] + (d_h[nodes] - d)[:, None] * g)
    raw = raw.reshape(quad["inside"].shape)
    w = quad["weights"]
    band_measure = float(w.sum())
    return raw, float((w * raw).sum() / band_measure), band_measure


def whole_band_errors(problem, c, rule):
    """Band L2/H1 errors of the bulk P1 field c over the whole band at once.
    ``rule`` is (barycentric nodes (nq, 4), normalized weights (nq,)) on
    every band tet, weighted by the tet volume and the indicator
    |d_h| < delta; the exact samples u(P x) and grad_Gamma u(P x) -
    d D^2d grad_Gamma u(P x) take D^2 d as the (N, 3, 3) matrix of the
    surface's public ``distance_jet``."""
    band, bulk, sol = problem.band, problem.bulk, problem.solution
    bary, nw = rule
    d_h = band.d_vertex[band.dofs] @ bary.T
    inside = np.abs(d_h) < problem.delta
    x = bulk.tet_points(band.tet_ids, bary)[inside]
    d, g, H = problem.surface.distance_jet(x)
    p = x - d[:, None] * g
    gg = sol.grad_gamma(p)
    c_local = c[band.dofs]
    grad_u = np.einsum("ek,ekd->ed", c_local, bulk.tet_grads(band.tet_ids))
    return weighted_error_norms(
        (bulk.tet_volume * nw * inside)[inside], sol.u(p),
        gg - d[:, None] * np.einsum("nij,nj->ni", H, gg),
        (c_local @ bary.T)[inside], grad_u[np.nonzero(inside)[0]])
