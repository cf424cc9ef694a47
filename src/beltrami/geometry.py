"""Analytic surfaces and their differential geometry.

Each surface exposes the signed distance function d, its gradient (the
unit-normal extension), and its Hessian (the Weingarten map extension),
plus the derived quantities every discretization in this package needs:
closest-point and scaled-radial lifts, parallel-surface curvatures, area
element ratios, lifted tangential gradients, and manufactured reference
solutions of  -Delta_gamma u = f.

Conventions
-----------
* d < 0 inside the surface, d > 0 outside; grad d is the outward normal.
* All point-valued arguments accept a single 3-vector or an (..., 3)
  array and return correspondingly shaped results.
* The conservative tube half-width 1/(2 K_inf) (K_inf = largest principal
  curvature magnitude) is exposed as ``tube_halfwidth`` and is what mesh
  and band admissibility checks use.  The jet itself is rejected only
  where it stops being well defined (near medial axes / centers), which
  is a strictly larger region, so callers may evaluate outside the
  conservative tube when they know the closest point is still unique.
"""

import numpy as np

from .errors import NewtonDivergence, NormalFlip, OutsideTube, RayMiss, UnsupportedSurface

CLOSEST_POINT = "closest_point"
SCALED_RADIAL = "scaled_radial"

_EYE3 = np.eye(3)


def _points(x):
    """Return (points (N, 3), was_single) for vector-or-batch input."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape != (3,):
            raise ValueError("expected a 3-vector or an (..., 3) array")
        return x[None, :], True
    if x.shape[-1] != 3:
        raise ValueError("expected a 3-vector or an (..., 3) array")
    return x.reshape(-1, 3), False


def _restore(arr, was_single, lead_shape):
    if was_single:
        return arr[0]
    return arr.reshape(lead_shape + arr.shape[1:])


def plane_basis(normals):
    """Two orthonormal in-plane vectors per unit normal, (N, 3) each."""
    n = len(normals)
    k = np.argmin(np.abs(normals), axis=1)
    e = np.zeros((n, 3))
    e[np.arange(n), k] = 1.0
    t1 = e - normals * normals[np.arange(n), k][:, None]
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(normals, t1)
    return t1, t2


class ManufacturedSolution:
    """Closed-form test problem on a surface: u, its tangential gradient, f.

    All three callables take on-surface points ((..., 3) arrays) and both
    u and f have vanishing surface mean, so f is an admissible right-hand
    side of the mean-zero weak problem and u its exact solution.
    """

    def __init__(self, name, u, grad_gamma, f):
        self.name = name
        self.u = u
        self.grad_gamma = grad_gamma
        self.f = f

    def __repr__(self):
        return f"ManufacturedSolution({self.name})"


class ImplicitSurface:
    """Base class for the closed C^2 surfaces (sphere, torus, ellipsoid)."""

    kind = None

    # -- subclass hooks ----------------------------------------------------

    def _distance_raw(self, pts):
        raise NotImplementedError

    def _grad_raw(self, pts):
        raise NotImplementedError

    def _jet_raw(self, pts):
        raise NotImplementedError

    def _project_raw(self, pts):
        d, g = self._grad_raw(pts)
        return pts - d[:, None] * g

    def _invalid_mask(self, pts):
        raise NotImplementedError

    def max_curvature(self):
        """Upper bound K_inf on the principal curvature magnitudes."""
        raise NotImplementedError

    def axis_extents(self):
        """Per-axis maximum |coordinate| over the surface."""
        raise NotImplementedError

    def surface_points(self, n, rng):
        """n pseudo-random points exactly on the surface."""
        raise NotImplementedError

    def manufactured(self):
        raise NotImplementedError

    # -- shared public API ---------------------------------------------------

    def tube_halfwidth(self):
        """Conservative tube half-width 1/(2 K_inf)."""
        return 0.5 / self.max_curvature()

    def _check_valid(self, pts):
        bad = self._invalid_mask(pts)
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
        pts, single = _points(x)
        self._check_valid(pts)
        d, g, H = self._jet_raw(pts)
        lead = np.asarray(x).shape[:-1]
        return (
            d[0] if single else d.reshape(lead),
            _restore(g, single, lead),
            _restore(H, single, lead),
        )

    def distance(self, x):
        """Signed distance only (validity-guarded)."""
        pts, single = _points(x)
        self._check_valid(pts)
        d = self._distance_raw(pts)
        lead = np.asarray(x).shape[:-1]
        return d[0] if single else d.reshape(lead)

    def closest_point(self, x):
        """Closest point projection P_d(x) = x - d(x) grad d(x)."""
        pts, single = _points(x)
        self._check_valid(pts)
        p = self._project_raw(pts)
        return _restore(p, single, np.asarray(x).shape[:-1])

    def generic_lift(self, x, lift=CLOSEST_POINT):
        """Map a point onto the surface by the requested lift.

        ``closest_point`` delegates to the distance projection,
        ``scaled_radial`` intersects the ray from the surface's center
        (for the torus, from the core circle) with the surface.  Neither
        route applies the tube guard; the lifts are well defined wherever
        the rays are nondegenerate.
        """
        pts, single = _points(x)
        if lift == CLOSEST_POINT:
            p = self._project_raw(pts)
        elif lift == SCALED_RADIAL:
            p = self._scaled_radial_raw(pts)
        else:
            raise ValueError(f"unknown lift kind {lift!r}")
        return _restore(p, single, np.asarray(x).shape[:-1])

    def _scaled_radial_raw(self, pts):
        raise NotImplementedError

    def _tangent_curvatures(self, g, H):
        """Eigenvalues of H restricted to the plane orthogonal to g.

        Returns the two principal curvatures of the parallel surface,
        sorted descending.  Restricting to an explicit tangent basis keeps
        an honestly-zero curvature (torus top circle) distinct from the
        zero eigenvalue along the normal.
        """
        t1, t2 = plane_basis(g)
        Ht1 = np.einsum("nij,nj->ni", H, t1)
        Ht2 = np.einsum("nij,nj->ni", H, t2)
        b11 = np.einsum("ni,ni->n", t1, Ht1)
        b22 = np.einsum("ni,ni->n", t2, Ht2)
        b12 = np.einsum("ni,ni->n", t1, Ht2)
        mean = 0.5 * (b11 + b22)
        disc = np.sqrt(0.25 * (b11 - b22) ** 2 + b12**2)
        return np.stack([mean + disc, mean - disc], axis=1)

    def parallel_curvatures(self, x):
        """Principal curvatures of the parallel surface through x.

        These are the nonzero eigenvalues of D^2 d(x) and satisfy
        kappa_i(x) = kappa_i(P_d(x)) / (1 + d(x) kappa_i(P_d(x))).
        Sorted descending.
        """
        pts, single = _points(x)
        self._check_valid(pts)
        _, g, H = self._jet_raw(pts)
        kap = self._tangent_curvatures(g, H)
        return _restore(kap, single, np.asarray(x).shape[:-1])

    def area_ratio(self, x, nu_gamma):
        """Ratio q/q_Gamma of surface to facet area elements at x.

        Equals det(I - d(x) W(x)) (nu . nu_Gamma) computed from the two
        nonzero eigenvalues of the Weingarten extension W = D^2 d.
        """
        pts, single = _points(x)
        nus, _ = _points(nu_gamma)
        nus = np.broadcast_to(nus, pts.shape).reshape(-1, 3)
        self._check_valid(pts)
        ratio = self._jet_area_ratio(*self._jet_raw(pts), nus)
        return ratio[0] if single else ratio.reshape(np.asarray(x).shape[:-1])

    def _jet_area_ratio(self, d, g, H, nus):
        dots = np.einsum("ni,ni->n", g, nus)
        if np.any(dots <= 0.0):
            raise NormalFlip("facet normal points against the surface normal")
        kap = self._tangent_curvatures(g, H)
        return (1.0 - d * kap[:, 0]) * (1.0 - d * kap[:, 1]) * dots

    def lifted_tangential_gradient(self, x, nu_gamma, grad_gamma):
        """Tangential gradient on a facet of the lifted field u o P_d.

        Implements Pi_Gamma (I - d W) Pi grad_gamma at x, where grad_gamma
        is the surface-tangential gradient evaluated at P_d(x) and
        nu_gamma is the facet's unit normal.
        """
        pts, single = _points(x)
        nus, _ = _points(nu_gamma)
        gg, _ = _points(grad_gamma)
        nus = np.broadcast_to(nus, pts.shape).reshape(-1, 3)
        gg = np.broadcast_to(gg, pts.shape).reshape(-1, 3)
        self._check_valid(pts)
        v = self._jet_lifted_gradient(*self._jet_raw(pts), nus, gg)
        return _restore(v, single, np.asarray(x).shape[:-1])

    def _jet_lifted_gradient(self, d, g, H, nus, gg):
        gt = gg - np.einsum("ni,ni->n", gg, g)[:, None] * g
        v = gt - d[:, None] * np.einsum("nij,nj->ni", H, gt)
        return v - np.einsum("ni,ni->n", v, nus)[:, None] * nus

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
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def __repr__(self):
        return f"Sphere(radius={self.radius})"

    def max_curvature(self):
        return 1.0 / self.radius

    def axis_extents(self):
        return np.full(3, self.radius)

    def _invalid_mask(self, pts):
        return np.linalg.norm(pts, axis=1) < 1e-12 * self.radius

    def _distance_raw(self, pts):
        return np.linalg.norm(pts, axis=1) - self.radius

    def _grad_raw(self, pts):
        r = np.linalg.norm(pts, axis=1)
        r = np.where(r < 1e-300, 1e-300, r)
        return r - self.radius, pts / r[:, None]

    def _jet_raw(self, pts):
        d, g = self._grad_raw(pts)
        r = d + self.radius
        H = (_EYE3[None, :, :] - g[:, :, None] * g[:, None, :]) / r[:, None, None]
        return d, g, H

    def _scaled_radial_raw(self, pts):
        r = np.linalg.norm(pts, axis=1)
        if np.any(r < 1e-12 * self.radius):
            raise RayMiss("scaled-radial lift undefined at the center")
        return self.radius * pts / r[:, None]

    def surface_points(self, n, rng):
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return self.radius * v

    def manufactured(self):
        """u = xyz (degree-3 spherical harmonic), f = 12 xyz / R^2 on r = R.

        Away from the surface, ``f`` continues as 12 R^3 xyz / r^5: the exact
        negative ambient Laplacian of the normal extension (R/r)^3 xyz of u.
        Methods that sample f on the surface see the classical eigenvalue
        identity; bulk methods that sample f slightly off the surface see
        data consistent with the normal extension they are compared against.
        """
        R = self.radius

        def u(x):
            x = np.asarray(x, dtype=float)
            return x[..., 0] * x[..., 1] * x[..., 2]

        def grad_gamma(x):
            x = np.asarray(x, dtype=float)
            nu = x / np.linalg.norm(x, axis=-1, keepdims=True)
            gu = np.stack(
                [x[..., 1] * x[..., 2], x[..., 0] * x[..., 2], x[..., 0] * x[..., 1]],
                axis=-1,
            )
            return gu - np.sum(gu * nu, axis=-1, keepdims=True) * nu

        def f(x):
            x = np.asarray(x, dtype=float)
            r2 = np.sum(x * x, axis=-1)
            return 12.0 * R**3 * u(x) / r2**2.5

        return ManufacturedSolution(f"sphere(R={R}): u=xyz", u, grad_gamma, f)


class Torus(ImplicitSurface):
    """Torus around the z-axis: major radius R (core circle), minor radius r."""

    kind = "torus"

    def __init__(self, major_radius, minor_radius):
        if not major_radius > minor_radius > 0:
            raise ValueError("torus requires R > r > 0")
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
        rho = np.hypot(pts[:, 0], pts[:, 1])
        u = rho - self.major_radius
        s = np.hypot(u, pts[:, 2])
        return rho, u, s

    def _invalid_mask(self, pts):
        rho, _, s = self._cylinder(pts)
        return (rho < 1e-12 * self.major_radius) | (s < 1e-12 * self.minor_radius)

    def _distance_raw(self, pts):
        _, _, s = self._cylinder(pts)
        return s - self.minor_radius

    def _grad_raw(self, pts):
        rho, u, s = self._cylinder(pts)
        rho = np.where(rho < 1e-300, 1e-300, rho)
        s = np.where(s < 1e-300, 1e-300, s)
        grad_rho = np.stack([pts[:, 0] / rho, pts[:, 1] / rho, np.zeros(len(pts))], axis=1)
        q = u[:, None] * grad_rho
        q[:, 2] = pts[:, 2]
        return s - self.minor_radius, q / s[:, None]

    def _jet_raw(self, pts):
        rho, u, s = self._cylinder(pts)
        d, g = self._grad_raw(pts)
        grad_rho = np.stack([pts[:, 0] / rho, pts[:, 1] / rho, np.zeros(len(pts))], axis=1)
        ez = np.zeros_like(grad_rho)
        ez[:, 2] = 1.0
        # D^2 rho = (diag(1,1,0) - rho_hat rho_hat^T) / rho
        D2rho = (
            np.diag([1.0, 1.0, 0.0])[None, :, :]
            - grad_rho[:, :, None] * grad_rho[:, None, :]
        ) / rho[:, None, None]
        outer = lambda a, b: a[:, :, None] * b[:, None, :]
        H = (
            outer(grad_rho, grad_rho) + u[:, None, None] * D2rho + outer(ez, ez)
        ) / s[:, None, None] - outer(g, g) / s[:, None, None]
        return d, g, H

    def _scaled_radial_raw(self, pts):
        R, r = self.major_radius, self.minor_radius
        rho = np.hypot(pts[:, 0], pts[:, 1])
        if np.any(rho < 1e-12 * R):
            raise RayMiss("scaled-radial lift undefined on the torus axis")
        c = np.zeros_like(pts)
        c[:, 0] = R * pts[:, 0] / rho
        c[:, 1] = R * pts[:, 1] / rho
        q = pts - c
        sq = np.linalg.norm(q, axis=1)
        if np.any(sq < 1e-12 * r):
            raise RayMiss("scaled-radial lift undefined on the core circle")
        return c + r * q / sq[:, None]

    def surface_points(self, n, rng):
        R, r = self.major_radius, self.minor_radius
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        rho = R + r * np.cos(theta)
        return np.stack([rho * np.cos(phi), rho * np.sin(phi), r * np.sin(theta)], axis=1)

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
        coordinates with area element rho r, rho = R + r cos(theta).
        """
        R, r = self.major_radius, self.minor_radius

        def _angles(x):
            x = np.asarray(x, dtype=float)
            rho = np.hypot(x[..., 0], x[..., 1])
            phi = np.arctan2(x[..., 1], x[..., 0])
            cos_t = (rho - R) / r
            sin_t = x[..., 2] / r
            return rho, phi, cos_t, sin_t

        def u(x):
            _, phi, cos_t, _ = _angles(x)
            return np.sin(3.0 * phi) * cos_t

        def grad_gamma(x):
            x = np.asarray(x, dtype=float)
            rho, phi, cos_t, sin_t = _angles(x)
            grad_rho = np.stack(
                [x[..., 0] / rho, x[..., 1] / rho, np.zeros_like(rho)], axis=-1
            )
            grad_phi = np.stack(
                [-x[..., 1] / rho**2, x[..., 0] / rho**2, np.zeros_like(rho)], axis=-1
            )
            ez = np.zeros_like(grad_rho)
            ez[..., 2] = 1.0
            # grad theta = (-z grad_rho + (rho - R) e_z) / r^2 on the surface
            grad_theta = (-x[..., 2:3] * grad_rho + (rho - R)[..., None] * ez) / r**2
            gu = (
                3.0 * np.cos(3.0 * phi)[..., None] * cos_t[..., None] * grad_phi
                - np.sin(3.0 * phi)[..., None] * sin_t[..., None] * grad_theta
            )
            nu = (cos_t[..., None] * grad_rho + sin_t[..., None] * ez)
            return gu - np.sum(gu * nu, axis=-1, keepdims=True) * nu

        def f(x):
            x = np.asarray(x, dtype=float)
            rho = np.hypot(x[..., 0], x[..., 1])
            phi = np.arctan2(x[..., 1], x[..., 0])
            s = np.hypot(rho - R, x[..., 2])
            cos_t = (rho - R) / s
            sin_t = x[..., 2] / s
            return np.sin(3.0 * phi) * (
                cos_t / s**2 - sin_t**2 / (rho * s) + 9.0 * cos_t / rho**2
            )

        return ManufacturedSolution(
            f"torus(R={R}, r={r}): u=sin(3 phi) cos(theta)", u, grad_gamma, f
        )


class Ellipsoid(ImplicitSurface):
    """Axis-aligned ellipsoid (x/a)^2 + (y/b)^2 + (z/c)^2 = 1."""

    kind = "ellipsoid"

    def __init__(self, a, b, c):
        if min(a, b, c) <= 0:
            raise ValueError("semi-axes must be positive")
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
        return np.sum(pts**2 / self.abc2, axis=-1) - 1.0

    def _closest_t(self, pts):
        """Largest root of sum (a_i x_i)^2 / (a_i^2 + t)^2 = 1, vectorized.

        The left side is convex and decreasing on (-min a_i^2, inf), so
        Newton from the per-axis lower bound max_i(|a_i x_i| - a_i^2)
        increases monotonically to the root.

        Axes with |a_i x_i| <= 1e-12 max a^2 carry zero weight and drop out
        of the sum.  On the focal set inside the surface the remaining
        terms stay below 1 at the lower bound t = -a_k^2 of a zero-weight
        axis k; the clamped step then keeps t there, and ``_project_raw``
        puts the closest point off the plane x_k = 0.  Returns t and the
        (N, 3) mask of the axes with nonzero weight.
        """
        scale = self.abc2.max()
        w = np.abs(self.abc * pts)
        live = w > 1e-12 * scale
        w = np.where(live, w, 0.0)
        w2 = w**2
        t = np.max(w - self.abc2, axis=1)
        converged = np.zeros(len(pts), dtype=bool)
        for _ in range(50):
            den = np.where(live, self.abc2 + t[:, None], 1.0)
            gval = np.sum(w2 / den**2, axis=1) - 1.0
            gprime = -2.0 * np.sum(w2 / den**3, axis=1)
            step = np.where(converged, 0.0, gval / np.where(gprime == 0.0, -1.0, gprime))
            step = np.minimum(step, 0.0)
            t = t - step
            converged |= np.abs(step) <= 1e-13 * (scale + np.abs(t))
            if converged.all():
                return t, live
        raise NewtonDivergence(
            f"ellipsoid closest-point Newton: {int(np.count_nonzero(~converged))} "
            "point(s) unconverged after 50 iterations"
        )

    def _project_raw(self, pts):
        t, live = self._closest_t(pts)
        den = self.abc2 + t[:, None]
        p = np.where(live, self.abc2 * pts / np.where(live, den, 1.0), 0.0)
        pole = ~live & (den <= 0.0)
        rows = np.flatnonzero(pole.any(axis=1))
        k = np.argmax(pole[rows], axis=1)
        rest = np.sum((p[rows] / self.abc) ** 2, axis=1)
        p[rows, k] = np.copysign(
            self.abc[k] * np.sqrt(np.maximum(1.0 - rest, 0.0)), pts[rows, k]
        )
        return p

    def _grad_raw(self, pts):
        # x - P is parallel to the normal P / a^2 at P, so d = (x - P) . g
        p = self._project_raw(pts)
        n = p / self.abc2
        g = n / np.linalg.norm(n, axis=1, keepdims=True)
        return np.einsum("ni,ni->n", pts - p, g), g

    def _distance_raw(self, pts):
        return self._grad_raw(pts)[0]

    def _jet_raw(self, pts):
        # D^2 d = W (I + d W)^-1 with the Weingarten map at the closest point
        # P, W = Pi diag(a^-2) Pi / |P / a^2| and Pi = I - g g^T
        d, g = self._grad_raw(pts)
        n = (pts - d[:, None] * g) / self.abc2
        proj = _EYE3 - g[:, :, None] * g[:, None, :]
        W = (proj / self.abc2) @ proj / np.linalg.norm(n, axis=1)[:, None, None]
        H = np.linalg.solve(_EYE3 + d[:, None, None] * W, W)
        return d, g, H

    def _invalid_mask(self, pts):
        # outside: always a unique closest point; inside: stay within the
        # conservative inner bound where the jet is guaranteed smooth.
        inside = self.level_value(pts) < 0.0
        bad = np.zeros(len(pts), dtype=bool)
        if np.any(inside):
            d = self._distance_raw(pts[inside])
            bad[inside] = np.abs(d) >= self.tube_halfwidth()
        return bad

    def _scaled_radial_raw(self, pts):
        s = np.sqrt(np.sum(pts**2 / self.abc2, axis=1))
        if np.any(s < 1e-12):
            raise RayMiss("scaled-radial lift undefined at the center")
        return pts / s[:, None]

    def surface_points(self, n, rng):
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return self._project_raw(v * self.abc)

    def manufactured(self):
        """u = xyz with f from the level-set identity.

        With v = xyz (harmonic in the ambient space),
        f = -Delta_gamma u = nu^T D^2 v nu + (grad v . nu) Delta d,
        evaluated with the surface's own distance jet.
        """

        def _normal(x):
            x = np.asarray(x, dtype=float)
            nrm = x / self.abc2
            return nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)

        def u(x):
            x = np.asarray(x, dtype=float)
            return x[..., 0] * x[..., 1] * x[..., 2]

        def _grad_u(x):
            return np.stack(
                [x[..., 1] * x[..., 2], x[..., 0] * x[..., 2], x[..., 0] * x[..., 1]],
                axis=-1,
            )

        def grad_gamma(x):
            x = np.asarray(x, dtype=float)
            nu = _normal(x)
            gu = _grad_u(x)
            return gu - np.sum(gu * nu, axis=-1, keepdims=True) * nu

        def f(x):
            x = np.asarray(x, dtype=float)
            pts, single = _points(x)
            _, _, H = self._jet_raw(pts)
            trH = np.trace(H, axis1=1, axis2=2)
            nu = _normal(pts)
            # D^2(xyz) nu contracted twice: 2 (x y z -> symmetric off-diagonal)
            quad = 2.0 * (
                pts[:, 2] * nu[:, 0] * nu[:, 1]
                + pts[:, 1] * nu[:, 0] * nu[:, 2]
                + pts[:, 0] * nu[:, 1] * nu[:, 2]
            )
            gu = _grad_u(pts)
            val = quad + np.einsum("ni,ni->n", gu, nu) * trH
            return val[0] if single else val.reshape(x.shape[:-1])

        a, b, c = self.abc
        return ManufacturedSolution(
            f"ellipsoid({a},{b},{c}): u=xyz", u, grad_gamma, f
        )


# ---------------------------------------------------------------------------


def surface_from_config(spec):
    """Build a surface from its config mapping, e.g. {"kind": "sphere", "radius": 1.0}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise UnsupportedSurface("surface config must be a mapping with a 'kind'")
    kind = spec["kind"].lower()
    try:
        if kind == "sphere":
            return Sphere(spec["radius"])
        if kind == "torus":
            return Torus(spec["major_radius"], spec["minor_radius"])
        if kind == "ellipsoid":
            return Ellipsoid(spec["a"], spec["b"], spec["c"])
    except KeyError as missing:
        raise UnsupportedSurface(f"surface config for {kind!r} is missing {missing}")
    raise UnsupportedSurface(f"unknown surface kind {kind!r}")
