"""Method-agnostic P1 finite element infrastructure.

Quadrature rules on reference simplices, constant element gradients for
triangles in 3-D, CSR stiffness/load assembly, lumped masses, and the
mean-zero-constrained CG solver (Jacobi or V-cycle preconditioned)
shared by the parametric, trace, and narrow-band methods.

The three methods differ only in their element set: facets of the
polyhedral surface, cut faces of the bulk mesh, or band tetrahedra.
Each set is one dict over E elements of k vertices and nq quadrature
points: ``dofs`` (E, k) DOF numbers, ``measures`` (E,) element measures
(indicator-weighted in the band), and ``weights`` (E, nq) their weights
including the measure; the hat values at the nodes are the rule's own
``points`` (nq, k).  Facets and cut faces are one record (``facet_set``):
``dofs`` number the corners at ``vertices``, with the mesh's tangential
hat ``grads`` (E, 3, 3), areas and ``normals`` (E, 3).  On cut faces the
corners are the cut vertices, and ``E`` interpolates their values from
the bulk DOFs (``trace``).  Sampled (``sample_faces``), a surface set
keeps of the jet only per-face maxima: ``d_max`` of |d|, on facets
``lam_max`` of lambda (over the new facets only after an adaptive round),
on cut faces ``dev_max`` of |grad d - nu|, which the trace solve extends
to the corners (``trace.geometric_resolution``); where it carries the
load it adds ``forcing`` (E, nq).  Band sets add ``d_h`` and ``inside``
(E, nq) but hold no gradients and no nodes (``narrowband._band_nodes``
places them per block).  Error sets add the flat exact samples
``u_exact`` and ``grad_exact``.  ``assemble_stiffness`` sums couplings
per edge of a numbering no record holds: facets and cut faces couple all
three edges (``gradient_couplings``) of the facets' cached ``(edges,
tri_edges)`` or the cut faces' ``meshes.edge_table``; a band tet only its
three lattice axis edges, as its other three join orthogonal hat
gradients (``narrowband._band_stiffness``).
"""

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateSimplex, NoConvergence
from .geometry import row_cross, row_dot, row_norm


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


def edge_vectors(p0, p1, p2):
    """Edges (E, 3, 3) of triangles with corners p0, p1, p2 (E, 3); row i is opposite p_i."""
    return np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)


def triangle_geometry(p0, p1, p2, cross=None):
    """Gradients, areas, and unit normals for triangles embedded in 3-D.

    p0, p1, p2 : corners (E, 3), and ``cross`` their (p1 - p0) x (p2 - p0) if formed.  The
    hat gradients lie in each facet's plane, sum to zero, and reproduce in-plane linear fields.
    """
    e = edge_vectors(p0, p1, p2)
    n = row_cross(e[:, 2], -e[:, 1]) if cross is None else cross  # norm 2|T|
    two_area = row_norm(n)
    if np.any(two_area[:, None] < 2e-14 * row_norm(e) ** 2):  # against the longest edge
        raise DegenerateSimplex("triangle with vanishing area")
    nu = n / two_area[:, None]
    grads = row_cross(nu[:, None, :], e)
    grads /= two_area[:, None, None]
    return grads, 0.5 * two_area, nu


def facet_set(vertices, faces, grads, areas, normals):
    """The element set of the triangles ``faces`` on ``vertices`` under
    ``TRI_DEGREE4``, from their geometry (``triangle_geometry``)."""
    return {"dofs": faces, "vertices": vertices, "grads": grads, "measures": areas,
            "normals": normals, "weights": areas[:, None] * TRI_DEGREE4.normalized_weights}


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


def assemble_stiffness(couplings, diagonal, edges):
    """CSR stiffness: A_aa = diagonal[a], and A_ab sums the couplings (E, J)
    on the edge (a, b), in its columns of the set's edge numbering ``edges``
    (pairs (M, 2), ids (E, J); ``meshes.edge_table``), with one bincount:
    scipy receives 2M + n distinct entries, n the DOFs the edges touch."""
    pairs, ids = edges
    off = np.bincount(ids.ravel(), couplings.ravel(), len(pairs))
    touched = np.zeros(len(diagonal), dtype=bool)
    touched[pairs] = True
    lo, hi, own = pairs[:, 0], pairs[:, 1], np.flatnonzero(touched)
    data = np.concatenate([off, off, diagonal[own]])
    rows, cols = np.concatenate([lo, hi, own]), np.concatenate([hi, lo, own])
    return sp.coo_matrix((data, (rows, cols)), shape=(len(diagonal),) * 2).tocsr()


def gradient_couplings(es, n_dof):
    """``assemble_stiffness``'s couplings |T| g_a . g_b on the edges (a, b) of
    ``SIMPLEX_EDGES``, and its diagonal sum_T |T| |g_i|^2, for a set with
    constant ``grads``."""
    grads, measures, dofs = es["grads"], es["measures"], es["dofs"]
    edges = SIMPLEX_EDGES[dofs.shape[1]]
    off = measures[:, None] * np.stack([row_dot(grads[:, a], grads[:, b]) for a, b in edges], 1)
    return off, np.bincount(dofs.ravel(), (measures[:, None] * row_dot(grads, grads)).ravel(), n_dof)


def assemble_load(dofs, bary, values, point_measures, n_dof):
    """Load vector b_i = sum_e sum_q w_eq F(x_eq) phi_i(x_eq).

    bary (nq, k) the rule's barycentric nodes, the hat values phi_i(x_eq)
    on every element; values (E, nq), point_measures (E, nq) already
    include the element measure, so rows simply accumulate; the element
    loads (E, k) are built per block of whole elements (``node_blocks``).
    """
    nq = len(bary)
    contrib = np.empty(dofs.shape)
    for b in node_blocks(values.size, nq):
        f = slice(b.start // nq, b.stop // nq)
        contrib[f] = np.matmul((point_measures[f] * values[f])[:, None, :], bary)[:, 0]
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


# the damping of the V-cycle's Jacobi sweeps
OMEGA = 0.8


def v_cycle(A, steps, base):
    """The symmetric V(1, 1) cycle of A over a ladder of coarser operators,
    as a function r -> x.  ``steps`` ((P, A_c), ...) runs from fine to
    coarse, P prolongating from A_c's DOFs to the level above (the first
    to A's).  Each level smooths with damped Jacobi (``OMEGA``) before and
    after the correction restricted with P^T; the coarsest solves with
    ``base``, its pseudo-inverse, or if None smooths once more.  A down
    and an up loop, not recursion: a closure that calls itself sits in a
    reference cycle and keeps A alive until the cyclic collector runs."""
    ops = [A] + [A_c for _, A_c in steps]
    smooth = [OMEGA / op.diagonal() for op in ops]
    levels = [(op, w, P, P.T.tocsr()) for op, w, (P, _) in zip(ops, smooth, steps)]

    def cycle(r):
        down = []
        for op, w, _, R in levels:
            x = w * r
            down.append((r, x))
            r = R @ (r - op @ x)
        x = smooth[-1] * r if base is None else base @ r
        for (op, w, P, _), (r, x_pre) in zip(levels[::-1], down[::-1]):
            x = x_pre + P @ x
            x += w * (r - op @ x)
        return x

    return cycle


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
    basis : (steps, base), optional
        A ladder of coarser meshes (``SurfaceMesh.hierarchy``): the
        preconditioner is the symmetric V(1, 1) cycle ``v_cycle`` over it
        (local multigrid on bisection meshes; Wu and Chen 2006) instead of
        Jacobi.  It covers every row, so no row may be frozen (ValueError).

    Returns
    -------
    x : ndarray with m-weighted mean zero and relative residual <= tol.
    """
    b = np.asarray(b, dtype=float)
    mass = np.asarray(mass, dtype=float)
    n = len(b)
    diag = A.diagonal()
    max_diag = diag.max() if n else 0.0
    if n == 0 or max_diag <= 0.0:
        return np.zeros(n)
    idx = np.flatnonzero(diag > 1e-14 * max_diag)
    if len(idx) < n and basis is not None:
        raise ValueError("a V-cycle ladder cannot skip frozen rows")
    A_r = A if len(idx) == n else A[idx][:, idx].tocsr()
    b_r, m_r, diag = b[idx], mass[idx], diag[idx]
    msum = m_r.sum()
    b_r -= (b_r.sum() / msum) * m_r
    norm_b = np.linalg.norm(b_r)
    if norm_b == 0.0:
        return np.zeros(n)
    n_r = len(b_r)
    if max_iter is None:
        max_iter = max(20 * n_r, 100)
    dinv = 1.0 / diag
    precondition = (lambda r: dinv * r) if basis is None else v_cycle(A_r, *basis)

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
    x_full = np.zeros(n)
    x_full[idx] = x
    return x_full
