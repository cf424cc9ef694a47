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
    """Signed distance hypot(hypot(x, y) - R, z) - r to the torus around the
    z-axis with core radius R and tube radius r."""
    pts = np.asarray(pts, dtype=float)
    return np.hypot(np.hypot(pts[:, 0], pts[:, 1]) - R, pts[:, 2]) - r


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
    1 / s) holds the curvatures along phi and tau that D^2 d is built from."""
    pts = np.asarray(pts, dtype=float)
    rho = np.hypot(pts[:, 0], pts[:, 1])
    u = rho - R
    s = np.hypot(u, pts[:, 2])
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


def dense_cut_surface(vertices, tets, h, distance, orient, tables):
    """Cut surface marched through every lattice tetrahedron, as the
    library did while its lattice was dense; None when nothing is cut.

    ``distance`` maps points to d, ``orient(vertices, faces)`` orients
    faces along grad d, and ``tables`` are the library's cut-face pattern
    table, output groups and tet edges.
    """
    cut_faces, cut_groups, tet_edges = tables
    d = distance(vertices).copy()
    eps = 1e-12 * h
    on_surface = np.abs(d) < eps
    d[on_surface] = eps
    pattern = np.packbits((d < 0.0)[tets], axis=1, bitorder="little")[:, 0]
    cut = np.flatnonzero((pattern > 0) & (pattern < 15))
    if len(cut) == 0:
        return None
    group = cut_groups[pattern[cut]]
    present = group >= 0
    order = np.argsort(group[present], kind="stable")
    parents = np.repeat(cut, present.sum(axis=1))[order]
    local = cut_faces[pattern[cut]][present][order]
    ends = tets[parents[:, None, None], tet_edges[local]]
    lo, hi = ends.min(axis=2), ends.max(axis=2)
    lo = np.where(on_surface[hi], hi, lo)
    hi = np.where(on_surface[lo], lo, hi)
    nv = len(vertices)
    uniq, inverse = np.unique(lo * nv + hi, return_inverse=True)
    a, b = np.divmod(uniq, nv)
    da, db = d[a], d[b]
    tvals = np.divide(da, da - db, out=np.zeros_like(da), where=a != b)
    cut_vertices = vertices[a] + tvals[:, None] * (vertices[b] - vertices[a])
    faces = inverse.reshape(-1, 3)
    distinct = (faces != np.roll(faces, 1, axis=1)).all(axis=1)
    faces, parents = faces[distinct], parents[distinct]
    coords = cut_vertices[faces]
    n = np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0])
    good = np.linalg.norm(n, axis=1) >= 2e-14 * h**2
    active = np.unique(tets[np.unique(parents[good])])
    return {
        "vertices": cut_vertices,
        "faces": orient(cut_vertices, faces[good]),
        "parent_tet": parents[good],
        "active_dofs": active,
        "d_vertex": d[active],
        "n_degenerate": int((~good).sum()),
    }


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
# hierarchical basis level by level (reference for the composed bisection map)
# ---------------------------------------------------------------------------


def per_level_hierarchy(meshes, project):
    """The hierarchical basis of a chain of bisection-refined meshes, built
    level by level and densely.

    Each new vertex of a level is matched to the coarse edge (p0, p1)
    whose midpoint ``project`` maps onto it, bit for bit.  S is the dense
    product of the per-level maps [[I, 0], [P, I]], P averaging the two
    parents, and d_H holds each vertex's stiffness diagonal on the level
    that created it, sum_T |e_i|^2 / (4 |T|) with e_i the edge opposite
    the vertex.  Returns (S, d_H, parents), one (k, 2) parent array per
    level after the first.
    """
    def diagonal(mesh):
        x = mesh.vertices[mesh.triangles]
        e = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
        area = 0.5 * np.linalg.norm(np.cross(x[:, 1] - x[:, 0], x[:, 2] - x[:, 0]), axis=1)
        w = np.sum(e**2, axis=2) / (4.0 * area[:, None])
        return np.bincount(mesh.triangles.ravel(), weights=w.ravel(), minlength=len(mesh.vertices))

    S, d_H, parents = np.eye(len(meshes[0].vertices)), diagonal(meshes[0]), []
    for coarse, fine in zip(meshes, meshes[1:]):
        n, nf = len(coarse.vertices), len(fine.vertices)
        pairs = sorted({tuple(sorted(p)) for t in coarse.triangles.tolist()
                        for p in itertools.combinations(t, 2)})
        x = coarse.vertices
        mids = project(np.array([0.5 * (x[a] + x[b]) for a, b in pairs]).reshape(-1, 3))
        by_point = {m.tobytes(): pair for m, pair in zip(mids, pairs)}
        level = np.array([by_point[v.tobytes()] for v in fine.vertices[n:]], dtype=np.int64)
        step = np.eye(nf)
        for v, (a, b) in enumerate(level, start=n):
            step[v, a] = step[v, b] = 0.5
        lifted = np.eye(nf)
        lifted[:n, :n] = S
        S = step @ lifted
        d_H = np.concatenate([d_H, diagonal(fine)[n:]])
        parents.append(level.reshape(-1, 2))
    return S, d_H, parents


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
