"""Surface finite elements for the Laplace-Beltrami equation.

Three discretizations of -Delta_gamma u = f on closed surfaces given by
signed distance functions: a parametric method on interpolating
triangulations, a trace method on level sets cut from a bulk mesh, and a
narrow band method on a thin shell of bulk elements.  Includes residual
and geometric a posteriori estimators, adaptive refinement, and a
convergence-study harness.
"""

from .errors import (
    BadSeries,
    BeltramiError,
    BoxTooSmall,
    ConfigError,
    DegenerateSimplex,
    EmptyBand,
    NewtonDivergence,
    NoConvergence,
    NormalFlip,
    OutsideTube,
    RayMiss,
    UnsupportedSurface,
)
from .geometry import (
    CLOSEST_POINT,
    SCALED_RADIAL,
    Ellipsoid,
    ManufacturedSolution,
    Sphere,
    Torus,
    surface_from_config,
)
from .fem import (
    TET_DEGREE2,
    TET_DEGREE4,
    TRI_DEGREE4,
    ErrorReport,
    QuadratureRule,
    SolutionField,
    solve_mean_zero,
)
from .meshes import (
    BandMesh,
    BulkMesh,
    CutSurface,
    SurfaceMesh,
    build_bulk_mesh,
    build_sphere_mesh,
    build_torus_mesh,
    extract_band,
    extract_cut_surface,
    refine_bisection,
    write_off,
    write_vtk_tets,
)
from .parametric import (
    ParametricProblem,
    parametric_solve,
    surface_error_norms,
)
from .trace import (
    TraceProblem,
    skin_containment,
    trace_solve,
)
from .narrowband import (
    NarrowBandProblem,
    mismatch_map,
    narrowband_solve,
)
from .estimators import (
    IndicatorField,
    adapt_loop,
    dorfler_mark,
    geometric_estimators,
    residual_estimator,
    trace_estimators,
)
from .harness import (
    RunConfig,
    compute_eoc,
    geometry_checks,
    run_adapt,
    run_convergence,
    run_solve,
)

__version__ = "0.1.0"
