"""Method-agnostic P1 finite element infrastructure.

Quadrature rules on reference simplices, constant element gradients for
triangles in 3-D and tetrahedra, CSR stiffness/load assembly, lumped
masses, and the mean-zero-constrained Jacobi-preconditioned conjugate
gradient solver shared by the parametric, trace, and narrow-band methods.
"""

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateSimplex, NoConvergence


class QuadratureRule:
    """Barycentric quadrature on the reference triangle or tetrahedron.

    Weights sum to the reference simplex measure (1/2 for the triangle,
    1/6 for the tetrahedron); ``normalized_weights`` sum to one and are
    what element integrals scale by the physical measure.
    """

    def __init__(self, domain, degree, points, weights):
        self.domain = domain
        self.degree = degree
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.normalized_weights = self.weights / self.weights.sum()

    @property
    def npoints(self):
        return len(self.weights)

    def physical_points(self, coords):
        """Map barycentric nodes into each element: (E, k, 3) -> (E, nq, 3)."""
        return np.einsum("qk,ekd->eqd", self.points, coords)

    def __repr__(self):
        return f"QuadratureRule({self.domain}, degree={self.degree}, n={self.npoints})"


def _symmetric_orbit(k, values):
    """All distinct permutations of a barycentric tuple, as an array."""
    from itertools import permutations

    return np.array(sorted(set(permutations(values))), dtype=float)[:, :k]


def _tri_degree4():
    a1 = 0.445948490915965
    a2 = 0.091576213509771
    pts = np.vstack(
        [
            _symmetric_orbit(3, (1.0 - 2 * a1, a1, a1)),
            _symmetric_orbit(3, (1.0 - 2 * a2, a2, a2)),
        ]
    )
    w = np.concatenate([np.full(3, 0.223381589678011), np.full(3, 0.109951743655322)])
    return QuadratureRule("triangle", 4, pts, 0.5 * w / w.sum())


def _tet_degree2():
    a = 0.585410196624969
    b = 0.138196601125011
    pts = _symmetric_orbit(4, (a, b, b, b))
    w = np.full(4, 1.0 / 24.0)
    return QuadratureRule("tetrahedron", 2, pts, w)


def _tet_degree4():
    # classical 11-point degree-4 rule; the centroid weight is negative.
    a = 0.399403576166799
    b = 0.100596423833201
    pts = np.vstack(
        [
            np.full((1, 4), 0.25),
            _symmetric_orbit(4, (11.0 / 14.0, 1.0 / 14.0, 1.0 / 14.0, 1.0 / 14.0)),
            _symmetric_orbit(4, (a, a, b, b)),
        ]
    )
    w = np.concatenate(
        [[-74.0 / 5625.0], np.full(4, 343.0 / 45000.0), np.full(6, 56.0 / 2250.0)]
    )
    return QuadratureRule("tetrahedron", 4, pts, w)


TRI_DEGREE4 = _tri_degree4()
TET_DEGREE2 = _tet_degree2()
TET_DEGREE4 = _tet_degree4()


# ---------------------------------------------------------------------------
# element geometry
# ---------------------------------------------------------------------------


def edge_vectors(coords):
    """Edge vectors of triangles (E, 3, 3); row i is the edge opposite vertex i."""
    return coords[:, [2, 0, 1]] - coords[:, [1, 2, 0]]


def triangle_geometry(coords):
    """Gradients, areas, and unit normals for triangles embedded in 3-D.

    coords : (E, 3, 3).  The hat gradients lie in each facet's plane, sum
    to zero, and reproduce in-plane linear fields.
    """
    e = edge_vectors(np.asarray(coords, dtype=float))
    n = np.cross(e[:, 2], -e[:, 1])  # (p1 - p0) x (p2 - p0), norm 2|T|
    two_area = np.linalg.norm(n, axis=1)
    hmax = np.linalg.norm(e, axis=2).max(axis=1)
    if np.any(two_area < 2e-14 * hmax**2):
        raise DegenerateSimplex("triangle with vanishing area")
    nu = n / two_area[:, None]
    grads = np.cross(nu[:, None, :], e) / two_area[:, None, None]
    return grads, 0.5 * two_area, nu


def tetrahedron_geometry(coords):
    """Gradients and volumes for tetrahedra; coords (E, 4, 3)."""
    coords = np.asarray(coords, dtype=float)
    J = coords[:, 1:] - coords[:, 0:1]  # rows are edge vectors
    vol = np.linalg.det(J) / 6.0
    edge = np.linalg.norm(J, axis=2).max(axis=1)
    if np.any(np.abs(vol) < 1e-14 * edge**3):
        raise DegenerateSimplex("tetrahedron with vanishing volume")
    Jinv = np.linalg.inv(J)
    grads = np.empty((len(coords), 4, 3))
    grads[:, 1:, :] = np.transpose(Jinv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return grads, vol


def barycentric_values(grads, coords, points):
    """Hat-function values at physical points inside each element.

    Uses the affine identity lambda_i(x) = 1/k + g_i . (x - centroid).
    grads (E, k, 3), coords (E, k, 3), points (E, nq, 3) -> (E, nq, k).
    """
    centroid = coords.mean(axis=1)
    rel = points - centroid[:, None, :]
    k = coords.shape[1]
    return 1.0 / k + np.einsum("ekd,eqd->eqk", grads, rel)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def local_dofs(active, elements, n_global):
    """Element vertex ids as positions in ``active`` (-1 where inactive)."""
    lookup = np.full(n_global, -1, dtype=np.int64)
    lookup[active] = np.arange(len(active))
    return lookup[elements]


def assemble_stiffness(grads, measures, dofs, n_dof):
    """CSR stiffness from constant element gradients.

    A_ij = sum_T |T| g_i . g_j ; symmetric positive semidefinite with the
    constant vector in its kernel on every connected component.
    """
    elem = np.einsum("e,eid,ejd->eij", measures, grads, grads)
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    A = sp.coo_matrix((elem.ravel(), (rows, cols)), shape=(n_dof, n_dof))
    return A.tocsr()


def assemble_load(dofs, phi, values, point_measures, n_dof):
    """Load vector b_i = sum_e sum_q w_eq F(x_eq) phi_i(x_eq).

    phi (E, nq, k), values (E, nq), point_measures (E, nq) already include
    the element measure, so rows simply accumulate.
    """
    contrib = np.einsum("eq,eq,eqk->ek", point_measures, values, phi)
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=n_dof)


def lumped_mass(dofs, measures, n_dof):
    """Row-sum (lumped) mass: measure/k to each of an element's k vertices."""
    k = dofs.shape[1]
    contrib = np.repeat(measures[:, None] / k, k, axis=1)
    return np.bincount(dofs.ravel(), weights=contrib.ravel(), minlength=n_dof)


# ---------------------------------------------------------------------------
# solution containers
# ---------------------------------------------------------------------------


class SolutionField:
    """P1 coefficients tied to their global degrees of freedom.

    ``coefficients[i]`` belongs to DOF ``dof_ids[i]``; ``mass`` is the
    lumped measure vector used for the zero-mean normalization, so a
    solved field satisfies |sum_i m_i c_i| <= 1e-9 |m| |c|.
    """

    def __init__(self, coefficients, dof_ids, mass, domain="surface"):
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.dof_ids = np.asarray(dof_ids, dtype=np.int64)
        self.mass = np.asarray(mass, dtype=float)
        self.domain = domain

    @property
    def n_dof(self):
        return len(self.coefficients)

    def weighted_mean(self):
        return float(self.mass @ self.coefficients / self.mass.sum())

    def __repr__(self):
        return f"SolutionField(n_dof={self.n_dof}, domain={self.domain!r})"


class ErrorReport:
    """Errors and diagnostics of one solve."""

    def __init__(self, h_max, n_dof, err_L2, err_H1, iterations=0,
                 estimators=None, info=None):
        self.h_max = float(h_max)
        self.n_dof = int(n_dof)
        self.err_L2 = float(err_L2)
        self.err_H1 = float(err_H1)
        self.iterations = int(iterations)
        self.estimators = dict(estimators or {})
        self.info = dict(info or {})

    def __repr__(self):
        return (
            f"ErrorReport(h={self.h_max:.4g}, n={self.n_dof}, "
            f"L2={self.err_L2:.4e}, H1={self.err_H1:.4e})"
        )


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def solve_mean_zero(A, b, mass, tol=1e-10, max_iter=None, history=None):
    """Jacobi-preconditioned CG for the singular mean-zero problem.

    The stiffness A is symmetric PSD with the constants in its kernel; b
    is deflated (b <- b - (sum b / sum m) m) so the system is consistent,
    and every iterate is recentered to m-weighted mean zero.  Rows whose
    diagonal falls below 1e-14 of the largest diagonal (DOFs with
    essentially no cut support) are frozen at zero and left out of the
    Krylov space.

    Parameters
    ----------
    history : list, optional
        If given, receives the preconditioned residual norm per iteration.

    Returns
    -------
    x : ndarray with m-weighted mean zero and relative residual <= tol.
    """
    b = np.asarray(b, dtype=float)
    mass = np.asarray(mass, dtype=float)
    n = len(b)
    x_full = np.zeros(n)
    diag = A.diagonal()
    max_diag = diag.max() if n else 0.0
    if n == 0 or max_diag <= 0.0:
        return x_full
    keep = diag > 1e-14 * max_diag
    if not np.all(keep):
        idx = np.flatnonzero(keep)
        A_r = A[idx][:, idx].tocsr()
        b_r = b[idx].copy()
        m_r = mass[idx].copy()
        d_r = diag[idx]
    else:
        idx = None
        A_r = A
        b_r = b.copy()
        m_r = mass
        d_r = diag
    msum = m_r.sum()
    b_r -= (b_r.sum() / msum) * m_r
    norm_b = np.linalg.norm(b_r)
    if norm_b == 0.0:
        return x_full
    n_r = len(b_r)
    if max_iter is None:
        max_iter = max(20 * n_r, 100)
    minv = 1.0 / d_r

    x = np.zeros(n_r)
    r = b_r.copy()
    z = minv * r
    z -= (m_r @ z) / msum
    p = z.copy()
    rz = r @ z
    converged = False
    for _ in range(max_iter):
        Ap = A_r @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise NoConvergence("CG direction with nonpositive curvature")
        alpha = rz / pAp
        x += alpha * p
        x -= (m_r @ x) / msum
        r -= alpha * Ap
        if history is not None:
            history.append(float(np.sqrt(max(r @ (minv * r), 0.0))))
        if np.linalg.norm(r) <= tol * norm_b:
            converged = True
            break
        z = minv * r
        z -= (m_r @ z) / msum
        rz_new = r @ z
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    if not converged:
        raise NoConvergence(
            f"CG did not reach tol={tol:g} within {max_iter} iterations "
            f"(relative residual {np.linalg.norm(r) / norm_b:.3e})"
        )
    x -= (m_r @ x) / msum
    if idx is None:
        return x
    x_full[idx] = x
    return x_full
