"""Analytic surfaces and their differential geometry.

Each surface exposes the signed distance function d, its gradient (the
unit-normal extension), and its Hessian (the Weingarten map extension),
plus the derived quantities every discretization in this package needs:
the closest-point projection, parallel-surface curvatures, area element
ratios and lifted tangential gradients (all from that one jet), and
manufactured reference solutions of  -Delta_gamma u = f.  The ellipsoid
also carries the scaled-radial chart x / s(x) with its area ratio in
closed form; on the sphere and torus that lift is the closest-point map.

Conventions
-----------
* d < 0 inside the surface, d > 0 outside; grad d is the outward normal.
* All point-valued arguments accept a single 3-vector or an (..., 3)
  array and return correspondingly shaped results.
* The conservative tube half-width 1/(2 K_inf) (K_inf = largest principal
  curvature magnitude) is exposed as ``tube_halfwidth`` and is what mesh
  and band admissibility checks use.  The public routes reject points
  (``OutsideTube``) only where the jet stops being well defined, a
  strictly larger region, so they evaluate every point once.
* A surface supplies three hooks, ``_parts`` (d, grad d and what they come
  from, in one evaluation), ``_outside`` (the rejection mask read off it) and
  ``_hessian`` (D^2 d as curvatures k and a principal tangent e, expanded by
  ``hessian_matrix``); ``ImplicitSurface`` composes every route from them.
"""

import numpy as np

from .errors import NewtonDivergence, NormalFlip, OutsideTube, RayMiss, UnsupportedSurface

CLOSEST_POINT = "closest_point"
SCALED_RADIAL = "scaled_radial"
# Iterations the ellipsoid's closest-point Newton may take (``_closest_t``).
NEWTON_MAX_ITER = 50


def _rows(x):
    """The (N, 3) rows of a 3-vector or an (..., 3) array of finite coordinates."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != 3:
        raise ValueError("expected a 3-vector or an (..., 3) array")
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite coordinates {x[~np.isfinite(x)]} in the points")
    return x.reshape(-1, 3)


def _per_point(route, x, *more):
    """``route(pts, *rows)`` on the (N, 3) rows of x and of each of ``more``
    broadcast to them; each array it returns (one, or a tuple) gets x's
    leading shape, so a 3-vector x gives one point's values."""
    x = np.asarray(x, dtype=float)
    pts = _rows(x)
    out = route(pts, *(np.broadcast_to(_rows(m), pts.shape) for m in more))

    def shaped(a):
        return a[0] if x.ndim == 1 else a.reshape(x.shape[:-1] + a.shape[1:])

    return tuple(map(shaped, out)) if isinstance(out, tuple) else shaped(out)


def row_dot(a, b):
    """``np.sum(a * b, axis=-1)`` for a last axis of length 3, bit-identical."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def row_norm(v):
    """``np.linalg.norm(v, axis=-1)`` for a last axis of length 3, bit-identical."""
    return np.sqrt(row_dot(v, v))


def row_cross(a, b):
    """``np.cross(a, b)`` for last axes of length 3, broadcast, bit-identical."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def hessian_matrix(g, k, e):
    """D^2 d = k_1 (I - g g^T) + (k_0 - k_1) e e^T, (N, 3, 3), from the
    compact jet (g, k, e) of ``ImplicitSurface._hessian``."""
    return (k[:, 1, None, None] * (np.eye(3) - g[:, :, None] * g[:, None, :])
            + (k[:, 0] - k[:, 1])[:, None, None] * (e[:, :, None] * e[:, None, :]))


def hessian_times(g, k, e, t):
    """D^2 d t for (N, 3) vectors t, from the compact jet (g, k, e)."""
    return (k[:, 1, None] * (t - row_dot(g, t)[:, None] * g)
            + ((k[:, 0] - k[:, 1]) * row_dot(e, t))[:, None] * e)


def plane_basis(normals):
    """Two orthonormal in-plane vectors per unit normal, (N, 3) each."""
    n = len(normals)
    k = np.argmin(np.abs(normals), axis=1)
    e = np.zeros((n, 3))
    e[np.arange(n), k] = 1.0
    t1 = e - normals * normals[np.arange(n), k][:, None]
    t1 /= row_norm(t1)[:, None]
    t2 = row_cross(normals, t1)
    return t1, t2


def lambda_max(jet, normals):
    """Per face of unit normal ``normals`` (F, 3) the max of |(DP - I) t|,
    DP = I - grad d grad d^T - d D^2 d, over unit t in its plane and its
    samples, ``jet`` (d, grad d, k, e) at as many per face in face order:
    with p = (d k_0)^2, q = (d k_1)^2, c_g = grad d . nu, c_e = e . nu, A =
    (1 - q)(1 - c_g^2) and B = (p - q)(1 - c_e^2), lambda^2 = q + (A + B)/2
    + sqrt((A - B)^2/4 + (1 - q)(p - q) c_g^2 c_e^2), 1 - c_g^2 formed as
    |grad d - c_g nu|^2, and the root as (A + B)^2/4 - (1 - q)(p - q) c_t^2,
    c_t = (grad d x e) . nu, where its sum falls below 1e-3 of its first term."""
    d, g, k, e = (a.reshape((len(normals), -1) + a.shape[1:]) for a in jet)
    cg, ce = row_dot(g, normals[:, None]), row_dot(e, normals[:, None])
    a0, a1, a2 = (g[..., i] - cg * normals[:, i, None] for i in range(3))  # g's in-plane part
    p, q = (d * k[..., 0]) ** 2, (d * k[..., 1]) ** 2
    A, B = (1.0 - q) * (a0 * a0 + a1 * a1 + a2 * a2), (p - q) * (1.0 - ce * ce)
    s, ab = 0.25 * (A - B) ** 2, (1.0 - q) * (p - q)
    rad = s + ab * (cg * ce) ** 2
    at = np.nonzero(rad < 1e-3 * s)
    ct = row_dot(row_cross(g[at], e[at]), normals[at[0]])
    rad[at] = 0.25 * (A[at] + B[at]) ** 2 - ab[at] * ct * ct
    top = q + 0.5 * (A + B) + np.sqrt(rad)
    return np.sqrt(np.maximum(top.max(axis=1), 0.0))


class ManufacturedSolution:
    """Closed-form test problem on a surface: u, its tangential gradient, f.

    All three callables take (..., 3) arrays of points.  u and grad_gamma
    are read on the surface; f is also sampled off it (the narrow band
    evaluates it at mismatch-map images), and each surface's
    ``manufactured`` documents how its f continues there.  Both u and f
    have vanishing surface mean, so f is an admissible right-hand side of
    the mean-zero weak problem and u its exact solution.
    """

    def __init__(self, name, u, grad_gamma, f):
        self.name = name
        self.u = u
        self.grad_gamma = grad_gamma
        self.f = f

    def __repr__(self):
        return f"ManufacturedSolution({self.name})"


def _xyz_gradient(x):
    """The ambient gradient (yz, xz, xy) of xyz at (..., 3) points."""
    return np.stack([x[..., 1] * x[..., 2], x[..., 0] * x[..., 2], x[..., 0] * x[..., 1]],
                    axis=-1)


def _xyz_solution(name, normal, f):
    """u = xyz with forcing f; grad_gamma projects ``_xyz_gradient`` off the
    unit normal field ``normal`` (a callable on (..., 3) points)."""

    def u(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] * x[..., 1] * x[..., 2]

    def grad_gamma(x):
        x = np.asarray(x, dtype=float)
        nu = normal(x)
        gu = _xyz_gradient(x)
        return gu - row_dot(gu, nu)[..., None] * nu

    return ManufacturedSolution(name, u, grad_gamma, f)


class ImplicitSurface:
    """Base class for the closed C^2 surfaces (sphere, torus, ellipsoid)."""

    kind = None

    # -- subclass hooks ----------------------------------------------------

    def _parts(self, pts):
        """(d, grad d, parts) from one evaluation; ``parts`` holds what
        ``_outside`` and ``_hessian`` read off it."""
        raise NotImplementedError

    def _outside(self, d, parts):
        """Mask of the points where the jet is not defined, read off ``_parts``."""
        raise NotImplementedError

    def _hessian(self, pts, d, g, parts):
        """D^2 d at pts as (k, e), given one ``_parts`` evaluation there: the
        parallel-surface curvatures k (N, 2) along the unit principal tangent
        e (N, 3) and along g x e (``hessian_matrix``)."""
        raise NotImplementedError

    # -- routes composed from the hooks --------------------------------------

    def _distance_raw(self, pts):
        """Exact signed distance, 1-Lipschitz as bulk-mesh culling needs."""
        return self._parts(pts)[0]

    def _grad_raw(self, pts):
        return self._parts(pts)[:2]

    def _guarded_parts(self, pts):
        """``_parts``, after rejecting (``OutsideTube``) the ``_outside`` points."""
        d, g, parts = self._parts(pts)
        self._reject(self._outside(d, parts))
        return d, g, parts

    def _guarded_grad(self, pts):
        return self._guarded_parts(pts)[:2]

    def _jet_raw(self, pts):
        """The compact jet (d, g, k, e)."""
        d, g, parts = self._parts(pts)
        return (d, g) + self._hessian(pts, d, g, parts)

    def _guarded_jet(self, pts):
        d, g, parts = self._guarded_parts(pts)
        return (d, g) + self._hessian(pts, d, g, parts)

    def _project_raw(self, pts):
        d, g = self._grad_raw(pts)
        return pts - d[:, None] * g

    # Whether the scaled-radial lift is a chart of its own, with the lift and
    # its area ratio in ``_scaled_radial_raw(pts, nus)``.  Not on the sphere
    # and torus: the ray from the center (or the core circle) meets them at
    # the closest point, so there that lift is the closest-point map.
    _own_chart = False

    def max_curvature(self):
        """Upper bound K_inf on the principal curvature magnitudes."""
        raise NotImplementedError

    def axis_extents(self):
        """Per-axis maximum |coordinate| over the surface."""
        raise NotImplementedError

    def surface_points(self, n, rng):
        """n pseudo-random points exactly on the surface: by default Gaussian
        directions scaled by ``axis_extents`` and mapped by ``_project_raw``."""
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return self._project_raw(v * self.axis_extents())

    def manufactured(self):
        raise NotImplementedError

    # -- shared public API ---------------------------------------------------

    def tube_halfwidth(self):
        """Conservative tube half-width 1/(2 K_inf)."""
        return 0.5 / self.max_curvature()

    def _reject(self, bad):
        if np.any(bad):
            raise OutsideTube(
                f"{int(np.count_nonzero(bad))} point(s) outside the region where "
                f"the {self.kind} distance jet is well defined"
            )

    def distance_jet(self, x):
        """Signed distance, unit normal extension, and Weingarten extension.

        Returns
        -------
        d : scalar or (...,) array
        grad : (..., 3); satisfies |grad| = 1
        hess : (..., 3, 3); symmetric with hess @ grad = 0
        """

        def jet(pts):
            d, g, k, e = self._guarded_jet(pts)
            return d, g, hessian_matrix(g, k, e)

        return _per_point(jet, x)

    def distance(self, x):
        """Signed distance only (validity-guarded)."""
        return _per_point(lambda pts: self._guarded_grad(pts)[0], x)

    def closest_point(self, x):
        """Closest point projection P_d(x) = x - d(x) grad d(x)."""

        def project(pts):
            d, g = self._guarded_grad(pts)
            return pts - d[:, None] * g

        return _per_point(project, x)

    def parallel_curvatures(self, x):
        """Principal curvatures of the parallel surface through x.

        These are the tangent eigenvalues k of D^2 d(x) and satisfy
        kappa_i(x) = kappa_i(P_d(x)) / (1 + d(x) kappa_i(P_d(x))).
        Sorted descending.
        """
        return _per_point(lambda pts: np.sort(self._guarded_jet(pts)[2], axis=1)[:, ::-1], x)

    def area_ratio(self, x, nu_gamma):
        """Ratio q/q_Gamma of surface to facet area elements at x.

        Equals det(I - d(x) W(x)) (nu . nu_Gamma), the determinant taken on
        the tangent plane, the product of 1 - d k_i over the tangent
        eigenvalues k of the Weingarten extension W = D^2 d.
        """
        return _per_point(
            lambda pts, nus: self._jet_area_ratio(*self._guarded_jet(pts), nus), x, nu_gamma)

    def _jet_area_ratio(self, d, g, k, e, nus):
        dots = row_dot(g, nus)
        if np.any(dots <= 0.0):
            raise NormalFlip("facet normal points against the surface normal")
        return (1.0 - d * k[:, 0]) * (1.0 - d * k[:, 1]) * dots

    def _jet_lifted_gradient(self, d, g, k, e, nus, gg):
        # gt is orthogonal to g, so D^2 d gt = k_1 gt + (k_0 - k_1)(e . gt) e
        gt = gg - row_dot(gg, g)[:, None] * g
        v = ((1.0 - d * k[:, 1])[:, None] * gt
             - (d * (k[:, 0] - k[:, 1]) * row_dot(e, gt))[:, None] * e)
        return v - row_dot(v, nus)[:, None] * nus

    def tube_points(self, n, rng, fill=0.9):
        """n pseudo-random points inside the tube, |d| < fill * halfwidth."""
        base = self.surface_points(n, rng)
        _, nu = self._grad_raw(base)
        t = rng.uniform(-fill, fill, size=n) * self.tube_halfwidth()
        return base + t[:, None] * nu


# ---------------------------------------------------------------------------


class Sphere(ImplicitSurface):
    """Sphere of given radius centered at the origin."""

    kind = "sphere"

    def __init__(self, radius):
        if not 0 < radius < np.inf:
            raise ValueError("radius must be positive and finite")
        self.radius = float(radius)

    def __repr__(self):
        return f"Sphere(radius={self.radius})"

    def max_curvature(self):
        return 1.0 / self.radius

    def axis_extents(self):
        return np.full(3, self.radius)

    def _parts(self, pts):
        r = np.maximum(row_norm(pts), 1e-300)
        return r - self.radius, pts / r[:, None], r

    def _outside(self, d, r):
        # off the center, read off the r that grad d divides by
        return r < 1e-12 * self.radius

    def _hessian(self, pts, d, g, r):
        # umbilic: both curvatures are 1/r, and e drops out of D^2 d
        return np.repeat((1.0 / r)[:, None], 2, axis=1), np.zeros((len(pts), 3))

    def manufactured(self):
        """u = xyz (degree-3 spherical harmonic), f = 12 xyz / R^2 on r = R.

        Away from the surface, ``f`` continues as 12 R^3 xyz / r^5: the exact
        negative ambient Laplacian of the normal extension (R/r)^3 xyz of u.
        Methods that sample f on the surface see the classical eigenvalue
        identity; bulk methods that sample f slightly off the surface see
        data consistent with the normal extension they are compared against.
        """
        R = self.radius

        def f(x):
            x = np.asarray(x, dtype=float)
            return 12.0 * R**3 * (x[..., 0] * x[..., 1] * x[..., 2]) / row_dot(x, x)**2.5

        return _xyz_solution(f"sphere(R={R}): u=xyz",
                             lambda x: x / row_norm(x)[..., None], f)


class Torus(ImplicitSurface):
    """Torus around the z-axis: major radius R (core circle), minor radius r."""

    kind = "torus"

    def __init__(self, major_radius, minor_radius):
        if not np.inf > major_radius > minor_radius > 0:
            raise ValueError("torus requires finite R > r > 0")
        self.major_radius = float(major_radius)
        self.minor_radius = float(minor_radius)

    def __repr__(self):
        return f"Torus(R={self.major_radius}, r={self.minor_radius})"

    def max_curvature(self):
        R, r = self.major_radius, self.minor_radius
        return max(1.0 / r, 1.0 / (R - r))

    def axis_extents(self):
        R, r = self.major_radius, self.minor_radius
        return np.array([R + r, R + r, r])

    def _cylinder(self, pts):
        # no hypot: like ``row_norm``, finite while the squares are (|x| < 1e154)
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        rho = np.sqrt(x * x + y * y)
        u = rho - self.major_radius
        s = np.sqrt(u * u + z * z)
        return rho, u, s

    def _parts(self, pts):
        """d, grad d and the (rho, u, s, c, sn) they come from: ``_cylinder``'s
        values, rho and s clamped away from zero, and (c, sn) = (x, y) / rho."""
        rho, u, s = self._cylinder(pts)
        rho = np.where(rho < 1e-300, 1e-300, rho)
        s = np.where(s < 1e-300, 1e-300, s)
        c, sn = pts[:, 0] / rho, pts[:, 1] / rho
        g = np.empty((len(pts), 3))
        g[:, 0] = u * c / s
        g[:, 1] = u * sn / s
        g[:, 2] = pts[:, 2] / s
        return s - self.minor_radius, g, (rho, u, s, c, sn)

    def _outside(self, d, parts):
        # off the z-axis and the core circle, read off the clamped (rho, s)
        rho, s = parts[0], parts[2]
        return (rho < 1e-12 * self.major_radius) | (s < 1e-12 * self.minor_radius)

    def _hessian(self, pts, d, g, parts):
        rho, u, s, c, sn = parts
        # D^2 d = (tau tau^T + (u / rho) phi phi^T) / s: curvature u / (rho s)
        # along the toroidal phi = (-sn, c, 0), 1 / s along tau = phi x g
        return (np.column_stack([u / rho / s, 1.0 / s]),
                np.column_stack([-sn, c, np.zeros(len(pts))]))

    def _point_at(self, phi, theta):
        """The surface point at toroidal angle phi and poloidal angle theta."""
        rho = self.major_radius + self.minor_radius * np.cos(theta)
        return np.stack([rho * np.cos(phi), rho * np.sin(phi),
                         self.minor_radius * np.sin(theta)], axis=-1)

    def surface_points(self, n, rng):
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        return self._point_at(phi, rng.uniform(0.0, 2.0 * np.pi, n))

    def manufactured(self):
        """u = sin(3 phi) cos(theta) in toroidal/poloidal angles.

        Both angles are constant along surface normals (phi around the axis,
        theta around the core circle), so u's normal extension is simply
        sin(3 phi(x)) cos(theta(x)).  The forcing is the exact negative
        ambient Laplacian of that extension,

            f = sin(3 phi) [ cos(theta)/s^2 - sin^2(theta)/(rho s)
                             + 9 cos(theta)/rho^2 ],

        with s the distance to the core circle; on the surface (s = r) this
        reduces to the Laplace-Beltrami image of u in the (phi, theta)
        coordinates with area element rho r, rho = R + r cos(theta).  No angle
        is formed: (c, sn) = (x, y)/rho give sin(3 phi) = sn (3 - 4 sn^2) and
        cos(3 phi) = c (4 c^2 - 3); grad_gamma = a phi_hat + b theta_hat, a =
        3 cos(3 phi) cos(theta)/rho, b = -sin(3 phi) sin(theta)/r, in the unit
        tangents phi_hat = (-sn, c, 0), theta_hat = (-sin(theta) (c, sn), cos(theta)).
        """
        R, r = self.major_radius, self.minor_radius

        def _sin3(x):
            rho = np.sqrt(x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1])
            sn = x[..., 1] / rho
            return rho, sn, sn * (3.0 - 4.0 * sn * sn)

        def u(x):
            x = np.asarray(x, dtype=float)
            rho, _, sin3 = _sin3(x)
            return sin3 * ((rho - R) / r)

        def grad_gamma(x):
            x = np.asarray(x, dtype=float)
            rho, sn, sin3 = _sin3(x)
            c = x[..., 0] / rho
            cos_t, sin_t = (rho - R) / r, x[..., 2] / r
            a = 3.0 * c * (4.0 * c * c - 3.0) * cos_t / rho
            b = -sin3 * sin_t / r
            bs = b * sin_t
            out = np.empty(x.shape)
            out[..., 0] = -(a * sn) - bs * c
            out[..., 1] = a * c - bs * sn
            out[..., 2] = b * cos_t
            return out

        def f(x):
            x = np.asarray(x, dtype=float)
            rho, _, sin3 = _sin3(x)
            u_, z = rho - R, x[..., 2]
            s2 = u_ * u_ + z * z
            return sin3 * ((u_ - z * z / rho) / s2 + 9.0 * u_ / (rho * rho)) / np.sqrt(s2)

        return ManufacturedSolution(
            f"torus(R={R}, r={r}): u=sin(3 phi) cos(theta)", u, grad_gamma, f
        )


class Ellipsoid(ImplicitSurface):
    """Axis-aligned ellipsoid (x/a)^2 + (y/b)^2 + (z/c)^2 = 1."""

    kind = "ellipsoid"
    _own_chart = True

    def __init__(self, a, b, c):
        if not all(0 < v < np.inf for v in (a, b, c)):
            raise ValueError("semi-axes must be positive and finite")
        self.abc = np.array([float(a), float(b), float(c)])
        self.abc2 = self.abc**2

    def __repr__(self):
        a, b, c = self.abc
        return f"Ellipsoid(a={a}, b={b}, c={c})"

    def max_curvature(self):
        return float(self.abc.max() / self.abc.min() ** 2)

    def axis_extents(self):
        return self.abc.copy()

    def level_value(self, pts):
        q = pts**2 / self.abc2
        return q[..., 0] + q[..., 1] + q[..., 2] - 1.0

    def _closest_t(self, pts):
        """Largest root of sum (a_i x_i)^2 / (a_i^2 + t)^2 = 1, vectorized.

        The left side g is convex and decreasing on (-min a_i^2, inf), so a
        Newton step from anywhere there lands left of the root, and Newton
        from the left increases monotonically to it.  It starts at the
        larger of the lower bound max_i(|a_i x_i| - a_i^2) and one step from
        t = 0, the root on the surface.

        Axes with |a_i x_i| <= 1e-12 max a^2 carry zero weight and drop out
        of the sum.  On the focal set inside the surface the remaining
        terms stay below 1 at the lower bound t = -a_k^2 of a zero-weight
        axis k; the step from 0 lands left of it, the clamped step then
        keeps t there, and ``_project_raw`` puts the closest point off the
        plane x_k = 0.  Returns t and the (N, 3) mask of the axes with
        nonzero weight.
        """
        scale = self.abc2.max()
        w = np.abs(self.abc * pts)
        live = w > 1e-12 * scale
        w = np.where(live, w, 0.0)
        w2 = w**2
        low, q = w - self.abc2, w2 / self.abc2**2
        slope = w2 / self.abc2**3
        slope = 2.0 * (slope[:, 0] + slope[:, 1] + slope[:, 2])  # -g'(0); 0 with no live axis
        t = np.maximum(np.maximum(np.maximum(low[:, 0], low[:, 1]), low[:, 2]), np.divide(
            q[:, 0] + q[:, 1] + q[:, 2] - 1.0, slope, out=np.full(len(pts), -np.inf),
            where=slope > 0.0))
        converged = np.zeros(len(pts), dtype=bool)
        for _ in range(NEWTON_MAX_ITER):
            # r = 1 / (a^2 + t): g + 1 = sum w^2 r^2 and g' = -2 sum w^2 r^3
            r = np.where(live, self.abc2 + t[:, None], 1.0)
            np.reciprocal(r, out=r)
            q = r * r
            q *= w2
            gval = q[:, 0] + q[:, 1] + q[:, 2] - 1.0
            q *= r
            gprime = -2.0 * (q[:, 0] + q[:, 1] + q[:, 2])
            step = np.where(converged, 0.0, gval / np.where(gprime == 0.0, -1.0, gprime))
            np.minimum(step, 0.0, out=step)
            t = t - step
            converged |= np.abs(step) <= 1e-13 * (scale + np.abs(t))
            if converged.all():
                return t, live
        raise NewtonDivergence(
            f"ellipsoid closest-point Newton: {int(np.count_nonzero(~converged))} "
            f"point(s) unconverged after {NEWTON_MAX_ITER} iterations"
        )

    def _project_raw(self, pts):
        t, live = self._closest_t(pts)
        den = self.abc2 + t[:, None]
        p = np.where(live, self.abc2 * pts / np.where(live, den, 1.0), 0.0)
        pole = ~live & (den <= 0.0)
        rows = np.flatnonzero(pole[:, 0] | pole[:, 1] | pole[:, 2])
        k = np.argmax(pole[rows], axis=1)
        rest = np.sum((p[rows] / self.abc) ** 2, axis=1)
        p[rows, k] = np.copysign(
            self.abc[k] * np.sqrt(np.maximum(1.0 - rest, 0.0)), pts[rows, k]
        )
        return p

    def _parts(self, pts):
        """d, grad d and |n|, n = P / a^2 the normal at the closest point P
        (``_project_raw``): x - P is parallel to n, so d = (x - P) . g, and
        |n| scales the Weingarten map that ``_hessian`` reads."""
        p = self._project_raw(pts)
        n = p / self.abc2
        norm = row_norm(n)
        g = n / norm[:, None]
        return np.einsum("ni,ni->n", pts - p, g), g, norm

    def _outside(self, d, parts):
        # outside (d > 0) the closest point is unique; inside, stay within
        # the conservative bound, before 1 + d k_i can vanish.  d comes from
        # the Newton solve this guards.
        return d <= -self.tube_halfwidth()

    def _hessian(self, pts, d, g, norm):
        # D^2 d = W (I + d W)^-1 with the Weingarten map at the closest point
        # P, W = Pi diag(a^-2) Pi / |n| (n = P / a^2, |n| from ``_parts``) and
        # Pi = I - g g^T: the eigenpairs of W's 2x2 block B in a tangent
        # basis, kappa mapped to kappa / (1 + d kappa).  e_0 is orthogonal to
        # the larger row of B - kappa_0 I, which cancels nothing (t1 at an
        # umbilic, B = kappa I).
        t1, t2 = plane_basis(g)
        w1, scale = t1 / self.abc2, 1.0 / norm
        b11, b12 = row_dot(w1, t1) * scale, row_dot(w1, t2) * scale
        b22 = row_dot(t2 / self.abc2, t2) * scale
        half = 0.5 * (b11 - b22)
        disc = np.sqrt(half * half + b12 * b12)
        kappa = np.column_stack([0.5 * (b11 + b22) + disc, 0.5 * (b11 + b22) - disc])
        w = np.abs(half) + disc
        w[w == 0.0] = 1.0
        v1, v2 = np.where(half >= 0.0, w, b12), np.where(half >= 0.0, b12, w)
        return (kappa / (1.0 + d[:, None] * kappa),
                (v1[:, None] * t1 + v2[:, None] * t2) / np.sqrt(v1 * v1 + v2 * v2)[:, None])

    def _laplacian_d(self, d, g, norm):
        """tr D^2 d from one ``_parts`` evaluation (d, g, |n|), n = P / a^2 at
        the closest point P: the principal curvatures kappa_i there give
        sum kappa_i / (1 + d kappa_i) = (H + 2 d K) / (1 + d H + d^2 K), with
        the mean and Gauss curvatures H = tr W = (sum a_i^-2 - sum g_i^2
        a_i^-2) / |n| and K = det W = 1 / (a^2 b^2 c^2 |n|^4); H at d = 0."""
        inv = 1.0 / self.abc2
        H = (inv.sum() - row_dot(g * g, inv)) / norm
        K = 1.0 / (self.abc2.prod() * norm**4)
        return (H + 2.0 * d * K) / (1.0 + d * H + d * d * K)

    def _scaled_radial_raw(self, pts, nus):
        """The chart L(x) = x / s(x), s(x) = |x / abc|, and its area ratio on
        the facet planes with unit normals nus.

        s is 1-homogeneous (x . grad s = s), so DL = (I - x grad s^T / s) / s
        has rank 2 with cofactor grad s x^T / s^3, and the ratio |cof(DL) nu|
        is |x . nu| |grad s| / s^3, where grad s = (x / abc^2) / s.
        """
        y = pts / self.abc2
        s = np.sqrt(row_dot(pts, y))
        if np.any(s < 1e-12):
            raise RayMiss("scaled-radial lift undefined at the center")
        return pts / s[:, None], np.abs(row_dot(pts, nus)) * row_norm(y) / s**4

    def manufactured(self):
        """u = xyz with f from the level-set identity.

        With v = xyz (harmonic in the ambient space),
        f = -Delta_gamma u = nu^T D^2 v nu + (grad v . nu) Delta d,
        evaluated with the surface's own distance jet.

        Away from the surface, ``f`` continues by the same formula with nu
        the unit normal of the level set of (x/a)^2 + (y/b)^2 + (z/c)^2
        through x and Delta d = tr D^2 d(x) from the distance jet at x.
        That trace needs no Hessian (``_laplacian_d``).  Points with
        |level_value| <= 1e-13 count as on the surface: there P = x, d = 0
        and grad d = nu, so they skip the closest-point Newton solve.
        """

        def _normal(x):
            x = np.asarray(x, dtype=float)
            nrm = x / self.abc2
            return nrm / row_norm(nrm)[..., None]

        def forcing(pts):
            n = pts / self.abc2
            norm = row_norm(n)
            nu = n / norm[:, None]
            # on the surface P = x, d = 0 and grad d = nu; only the other
            # points need the Newton solve (and g a copy of nu)
            d, g = np.zeros(len(pts)), nu
            off = np.abs(self.level_value(pts)) > 1e-13
            if off.any():
                g = nu.copy()
                d[off], g[off], norm[off] = self._parts(pts[off])
            # D^2(xyz) nu contracted twice: 2 (x y z -> symmetric off-diagonal)
            quad = 2.0 * (
                pts[:, 2] * nu[:, 0] * nu[:, 1]
                + pts[:, 1] * nu[:, 0] * nu[:, 2]
                + pts[:, 0] * nu[:, 1] * nu[:, 2]
            )
            return quad + row_dot(_xyz_gradient(pts), nu) * self._laplacian_d(d, g, norm)

        a, b, c = self.abc
        return _xyz_solution(f"ellipsoid({a},{b},{c}): u=xyz", _normal,
                             lambda x: _per_point(forcing, x))


# ---------------------------------------------------------------------------


def is_finite_number(value):
    """Whether value is an int or a finite float; booleans are not numbers."""
    return not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and bool(np.isfinite(value)))


def surface_from_config(spec):
    """Build a surface from its config mapping, e.g. {"kind": "sphere", "radius": 1.0};
    a parameter that fails ``is_finite_number`` is refused."""
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise UnsupportedSurface("surface config must be a mapping with a string 'kind'")
    kind = spec["kind"].lower()

    def number(name):
        value = spec[name]
        if not is_finite_number(value):
            raise UnsupportedSurface(f"{name} must be a finite number, got {value!r}")
        return value

    try:
        if kind == "sphere":
            return Sphere(number("radius"))
        if kind == "torus":
            return Torus(number("major_radius"), number("minor_radius"))
        if kind == "ellipsoid":
            return Ellipsoid(number("a"), number("b"), number("c"))
    except KeyError as missing:
        raise UnsupportedSurface(f"surface config for {kind!r} is missing {missing}")
    raise UnsupportedSurface(f"unknown surface kind {kind!r}")
