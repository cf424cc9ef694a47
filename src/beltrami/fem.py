"""Method-agnostic P1 finite element infrastructure.

Quadrature rules on reference simplices, constant element gradients for
triangles in 3-D, CSR stiffness/load assembly, lumped masses, and the
mean-zero-constrained CG solver (Jacobi or hierarchical-basis preconditioned)
shared by the parametric, trace, and narrow-band methods.

The three methods differ only in their element set: facets of the
polyhedral surface, cut faces of the bulk mesh, or band tetrahedra.
Each set is one dict over E elements of k vertices and nq quadrature
points: ``dofs`` (E, k) DOF numbers, ``grads`` (E, k, 3) constant hat
gradients (tangential on faces), ``measures`` (E,) element measures
(indicator-weighted in the band), ``qp`` (E, nq, 3) quadrature points,
``weights`` (E, nq) their weights including the measure, and ``phi``
(E, nq, k) the hat values there (a read-only broadcast view on facets
and band tets).  Surface sets add ``normals`` (E, 3) and, sampled,
``jet`` (the distance jet at the points) and from it ``forcing`` (E, nq)
where they carry the load.  Every surface set is sampled in blocks of
whole faces (``node_blocks``), and only the facets' ``jet`` keeps D^2 d,
as its curvatures and principal tangent (d, grad d, k, e): on cut faces
it is (d, grad d).  On facets whose samples an adaptive round
carried over (``parametric_workspace``), ``jet`` covers only the rows
after them, the new facets'.  Band sets add ``d_h`` and ``inside`` (E, nq).
Error sets add the flat exact samples ``u_exact`` and ``grad_exact``.
The stiffness also takes the set's edge numbering (``assemble_stiffness``),
which no record holds: the facets' cached ``(edges, tri_edges)``, or on cut
faces (by their parent tets) and band tets ``meshes.kuhn_edges``, which the
solve computes just before assembly and drops after it.
"""

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateSimplex, NoConvergence
from .geometry import row_dot, row_norm


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
        return self.points @ coords

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

# Nodes per block of a sampling loop, so its temporaries stay small.
NODE_BLOCK = 1 << 14


def node_blocks(n, nq=1):
    """Slices over n nodes in blocks of whole groups of nq (an element's
    nodes): NODE_BLOCK nodes a block, or one group if that is larger."""
    step = max(NODE_BLOCK // nq, 1) * nq
    return [slice(lo, lo + step) for lo in range(0, n, step)]


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
    two_area = row_norm(n)
    if np.any(two_area[:, None] < 2e-14 * row_norm(e) ** 2):  # against the longest edge
        raise DegenerateSimplex("triangle with vanishing area")
    nu = n / two_area[:, None]
    grads = np.cross(nu[:, None, :], e) / two_area[:, None, None]
    return grads, 0.5 * two_area, nu


def barycentric_values(grads, coords, points):
    """Hat-function values at physical points inside each element.

    Uses the affine identity lambda_i(x) = 1/k + g_i . (x - centroid).
    grads (E, k, 3), coords (E, k, 3), points (E, nq, 3) -> (E, nq, k).
    """
    k = coords.shape[1]
    rel = points - (sum(coords[:, i] for i in range(k)) / k)[:, None, :]
    return 1.0 / k + rel @ grads.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


# local vertex pairs of the edges of a simplex with k vertices, the column
# order of an edge numbering: on triangles row i is the edge opposite vertex
# i, on tetrahedra the pairs are in lexicographic order
SIMPLEX_EDGES = {
    3: np.array([[1, 2], [2, 0], [0, 1]]),
    4: np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]),
}


def assemble_stiffness(grads, measures, dofs, n_dof, edges):
    """CSR stiffness from constant element gradients.

    A_ij = sum_T |T| g_i . g_j ; symmetric positive semidefinite with the
    constant vector in its kernel on every connected component.  ``edges``
    is the element set's edge numbering, (pairs (M, 2), ids (E, k(k-1)/2))
    as ``meshes.edge_table`` returns it: the off-diagonal entries are summed
    per edge, so scipy receives 2M + n distinct entries, n the DOFs that the
    elements touch.
    """
    pairs, ids = edges
    off = np.empty(ids.shape)
    for j, (a, b) in enumerate(SIMPLEX_EDGES[dofs.shape[1]]):
        off[:, j] = row_dot(grads[:, a], grads[:, b])
    off *= measures[:, None]
    off = np.bincount(ids.ravel(), off.ravel(), len(pairs))
    touched = np.zeros(n_dof, dtype=bool)
    touched[pairs] = True
    lo, hi, own = pairs[:, 0], pairs[:, 1], np.flatnonzero(touched)
    data = np.concatenate([off, off, stiffness_diagonal(grads, measures, dofs, n_dof)[own]])
    rows, cols = np.concatenate([lo, hi, own]), np.concatenate([hi, lo, own])
    return sp.coo_matrix((data, (rows, cols)), shape=(n_dof, n_dof)).tocsr()


def stiffness_diagonal(grads, measures, dofs, n_dof):
    """The diagonal of ``assemble_stiffness``: sum_T |T| |g_i|^2 per DOF."""
    return np.bincount(dofs.ravel(), (measures[:, None] * row_dot(grads, grads)).ravel(), n_dof)


def extend_basis(S, n, parents):
    """The hierarchical-to-nodal map after a bisection round: S on the n old
    vertices (None: the identity), then for each new vertex v, in the order
    of its parent edges (p0, p1), the row (S[p0] + S[p1]) / 2 + e_v."""
    S = sp.identity(n, format="csr") if S is None else S
    k = len(parents)
    mid = sp.csr_matrix((np.full(2 * k, 0.5), parents.ravel(), np.arange(0, 2 * k + 1, 2)),
                        shape=(k, n)) @ S
    # each new row is its row of mid, then its own unit entry at n + i
    ends = mid.indptr[1:]
    indptr = np.concatenate([S.indptr, S.indptr[-1] + ends + np.arange(1, k + 1)])
    indices = np.concatenate([S.indices, np.insert(mid.indices, ends, n + np.arange(k))])
    data = np.concatenate([S.data, np.insert(mid.data, ends, 1.0)])
    return sp.csr_matrix((data, indices, indptr), shape=(n + k, n + k))


def assemble_load(dofs, phi, values, point_measures, n_dof):
    """Load vector b_i = sum_e sum_q w_eq F(x_eq) phi_i(x_eq).

    phi (E, nq, k), values (E, nq), point_measures (E, nq) already include
    the element measure, so rows simply accumulate.
    """
    contrib = np.matmul((point_measures * values)[:, None, :], phi)[:, 0]
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


def solve_mean_zero(A, b, mass, tol=1e-10, max_iter=None, history=None, basis=None):
    """Preconditioned CG for the singular mean-zero problem.

    The stiffness A is symmetric PSD with the constants in its kernel; b
    is deflated (b <- b - (sum b / sum m) m) so the system is consistent,
    and m-orthogonal search directions keep every iterate at m-weighted
    mean zero; the result is recentered once against rounding.  Rows whose
    diagonal falls below 1e-14 of the largest diagonal (DOFs with
    essentially no cut support) are frozen at zero and left out of the
    Krylov space.

    Parameters
    ----------
    history : list, optional
        If given, receives the preconditioned residual norm per iteration.
    basis : (S, d_H), optional
        A hierarchical basis (``SurfaceMesh.hierarchy``): the preconditioner
        is S D_H^-1 S^T (Yserentant; Bank, Dupont and Yserentant) instead of
        Jacobi.  It covers every row, so no row may be frozen (ValueError).

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
        if basis is not None:
            raise ValueError("a hierarchical basis cannot skip frozen rows")
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
    S, d_H = basis or (None, d_r)
    St, dinv = None if S is None else S.T.tocsr(), 1.0 / d_H

    def precondition(r):
        return dinv * r if S is None else S @ (dinv * (St @ r))

    x = np.zeros(n_r)
    r = b_r.copy()
    z = precondition(r)
    z -= (m_r @ z) / msum
    p = z.copy()
    rz = r @ z
    stop = (tol * norm_b) ** 2
    converged = False
    for _ in range(max_iter):
        Ap = A_r @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise NoConvergence("CG direction with nonpositive curvature")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        mr = precondition(r)
        if history is not None:
            history.append(float(np.sqrt(max(r @ mr, 0.0))))
        if r @ r <= stop:
            converged = True
            break
        z = mr - (m_r @ mr) / msum
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
